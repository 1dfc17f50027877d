package predapprox

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
)

var p1, p2, p3 = expr.A("p1"), expr.A("p2"), expr.A("p3")

// mustFromExpr is FromExpr for statically known predicates.
func mustFromExpr(t testing.TB, p expr.Pred, k int) Pred {
	t.Helper()
	phi, err := FromExpr(p, k)
	if err != nil {
		t.Fatal(err)
	}
	return phi
}

func TestAlgAtomSingleOccurrence(t *testing.T) {
	// p1 + p1 violates the restriction.
	if _, err := FromExpr(expr.Ge(expr.Add(p1, p1), expr.CInt(0)), 1); err == nil {
		t.Error("double occurrence must be rejected")
	}
	if _, err := FromExpr(expr.Ge(expr.Mul(p1, p2), expr.CFloat(0.1)), 2); err != nil {
		t.Errorf("single occurrence rejected: %v", err)
	}
	if _, err := FromExpr(expr.Ge(expr.Mul(p1, p1), expr.CInt(0)), 1); err == nil {
		t.Error("p1·p1 must be rejected")
	}
}

func TestAlgAtomEval(t *testing.T) {
	// p1·p2 ≥ 0.1.
	a := mustFromExpr(t, expr.Ge(expr.Mul(p1, p2), expr.CFloat(0.1)), 2)
	if !a.Eval([]float64{0.5, 0.5}) {
		t.Error("0.25 − 0.1 ≥ 0 should hold")
	}
	if a.Eval([]float64{0.1, 0.5}) {
		t.Error("0.05 − 0.1 ≥ 0 should fail")
	}
	if a.Arity() != 2 {
		t.Error("arity wrong")
	}
}

func TestAlgAtomMarginMatchesLinear(t *testing.T) {
	// p1 ≥ 0.4 parsed and built by Linear takes Theorem 5.2's closed form,
	// which must agree with the corner search.
	c := expr.Cmp{Op: expr.CmpGe, L: p1, R: expr.CFloat(0.4)}
	alg := mustFromExpr(t, c, 1)
	lin := Linear([]float64{1}, 0.4)
	for _, p := range [][]float64{{0.5}, {0.9}, {0.3}, {0.41}} {
		ma, ml, mc := alg.Margin(p), lin.Margin(p), cornerMargin(c, p)
		if ma != ml || math.Abs(ma-mc) > 1e-9 {
			t.Errorf("p=%v: parsed margin %v, linear %v, corner search %v", p, ma, ml, mc)
		}
	}
}

func TestAlgAtomRatioMatchesExample54(t *testing.T) {
	// p1/p2 ≥ 1/2 at (1/2, 1/2): ε = 1/3 like the linearized form.
	alg := mustFromExpr(t, expr.Ge(expr.Div(p1, p2), expr.CFloat(0.5)), 2)
	eps := alg.Margin([]float64{0.5, 0.5})
	if math.Abs(eps-1.0/3) > 1e-9 {
		t.Errorf("ratio-form ε = %v, want 1/3", eps)
	}
}

// Theorem 5.5: corner agreement implies orthotope homogeneity. The margin
// from corner-check binary search must certify a genuinely homogeneous
// orthotope (validated against dense grid scans, experiment E7).
func TestAlgAtomCornerCriterionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	preds := []func() (expr.Pred, int){
		func() (expr.Pred, int) { return expr.Ge(expr.Mul(p1, p2), expr.CFloat(0.05+0.3*rng.Float64())), 2 },
		func() (expr.Pred, int) { return expr.Ge(expr.Div(p1, p2), expr.CFloat(0.3+rng.Float64())), 2 },
		func() (expr.Pred, int) {
			return expr.Ge(expr.Add(expr.Mul(p1, p2), p3), expr.CFloat(0.2+0.5*rng.Float64())), 3
		},
		func() (expr.Pred, int) { return expr.Ge(p1, expr.Mul(expr.CFloat(0.5+rng.Float64()), p2)), 2 },
	}
	for trial := 0; trial < 120; trial++ {
		f, k := preds[rng.Intn(len(preds))]()
		atom := mustFromExpr(t, f, k)
		p := make([]float64, k)
		for i := range p {
			p[i] = 0.15 + 0.7*rng.Float64()
		}
		m := atom.Margin(p)
		if m <= 1e-6 {
			continue
		}
		probe := math.Min(m*0.98, m-1e-9)
		if !OrthotopeHomogeneous(atom, p, probe, 7) {
			t.Fatalf("trial %d: margin %v not homogeneous for %s at %v", trial, m, atom, p)
		}
	}
}

// Binary-search maximality: slightly beyond the margin some corner must
// disagree (the margin is not needlessly small).
func TestAlgAtomMarginMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 80; trial++ {
		c := expr.Cmp{Op: expr.CmpGe, L: expr.Mul(p1, p2), R: expr.CFloat(0.05 + 0.3*rng.Float64())}
		atom := mustFromExpr(t, c, 2)
		p := []float64{0.2 + 0.6*rng.Float64(), 0.2 + 0.6*rng.Float64()}
		m := atom.Margin(p)
		if m >= EpsMax-1e-9 || m <= 1e-9 {
			continue
		}
		beyond := math.Min(m*1.05+1e-6, EpsMax)
		if cornersAgree(c, p, beyond, atom.Eval(p), 2) {
			t.Fatalf("trial %d: margin %v not maximal (corners still agree at %v)", trial, m, beyond)
		}
	}
}

func TestDivisionByZeroInsideOrthotope(t *testing.T) {
	// 1/(p1 − 0.5) ≥ 0: at p near 0.5 the orthotope contains the pole; the
	// margin must shrink accordingly rather than blow up.
	atom := mustFromExpr(t, expr.Ge(expr.Div(expr.CInt(1), expr.Sub(p1, expr.CFloat(0.5))), expr.CInt(0)), 1)
	m := atom.Margin([]float64{0.6})
	// Pole at x=0.5: orthotope lower end 0.6/(1+ε) hits 0.5 at ε=0.2.
	if m > 0.2+1e-6 {
		t.Errorf("margin %v crosses the pole at ε=0.2", m)
	}
}
