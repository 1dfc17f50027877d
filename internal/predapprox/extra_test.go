package predapprox

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

func TestStrictAtomSemantics(t *testing.T) {
	half := expr.CFloat(0.5)
	ge := mustFromExpr(t, expr.Ge(p1, half), 1)
	gt := mustFromExpr(t, expr.Gt(p1, half), 1)
	if !ge.Eval([]float64{0.5}) {
		t.Error("p1 >= 0.5 at 0.5 should hold")
	}
	if gt.Eval([]float64{0.5}) {
		t.Error("p1 > 0.5 at 0.5 should not hold")
	}
	// not flips the value, and with it strictness: not (p1 >= 0.5) is
	// p1 < 0.5, false on the boundary. not not restores it everywhere.
	not := mustFromExpr(t, expr.NotOf(expr.Ge(p1, half)), 1)
	lt := mustFromExpr(t, expr.Lt(p1, half), 1)
	notNot := mustFromExpr(t, expr.NotOf(expr.NotOf(expr.Ge(p1, half))), 1)
	for _, v := range []float64{0.2, 0.4, 0.5, 0.9} {
		x := []float64{v}
		if not.Eval(x) == ge.Eval(x) || not.Eval(x) != lt.Eval(x) {
			t.Errorf("at %v: not (p1 >= 0.5) = %v, p1 >= 0.5 = %v, p1 < 0.5 = %v", v, not.Eval(x), ge.Eval(x), lt.Eval(x))
		}
		if notNot.Eval(x) != ge.Eval(x) {
			t.Errorf("double negation differs at %v", v)
		}
	}
}

// Margins of strict and non-strict comparisons coincide (the boundary has
// measure zero; singularity detection covers it).
func TestStrictMarginSameGeometry(t *testing.T) {
	f := expr.Sub(p1, expr.Mul(expr.CInt(2), p2))
	ge := mustFromExpr(t, expr.Ge(f, expr.CFloat(0.1)), 2)
	gt := mustFromExpr(t, expr.Gt(f, expr.CFloat(0.1)), 2)
	for _, p := range [][]float64{{0.9, 0.2}, {0.3, 0.4}, {0.5, 0.1}} {
		if math.Abs(ge.Margin(p)-gt.Margin(p)) > 1e-12 {
			t.Errorf("strict margin differs at %v", p)
		}
	}
}

// Property: the linear margin is scale-invariant in the coefficients
// (multiplying (a, b) by λ > 0 leaves the geometry unchanged).
func TestLinearMarginScaleInvariant(t *testing.T) {
	f := func(a1, a2 int8, b int8, lam uint8, x1, x2 uint8) bool {
		lambda := 0.5 + float64(lam%40)/10
		coef := []float64{float64(a1) / 16, float64(a2) / 16}
		bb := float64(b) / 32
		p := []float64{0.1 + float64(x1%80)/100, 0.1 + float64(x2%80)/100}
		m1 := Linear(coef, bb).Margin(p)
		m2 := Linear([]float64{coef[0] * lambda, coef[1] * lambda}, bb*lambda).Margin(p)
		return math.Abs(m1-m2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: margins shrink (weakly) as the point approaches the boundary
// along a ray for the atom x ≥ b.
func TestMarginMonotoneInDistance(t *testing.T) {
	phi := Linear([]float64{1}, 0.5)
	last := math.Inf(1)
	for _, x := range []float64{0.95, 0.85, 0.75, 0.65, 0.55} {
		m := phi.Margin([]float64{x})
		if m > last+1e-12 {
			t.Errorf("margin increased approaching the boundary: %v at %v", m, x)
		}
		last = m
	}
}

// singularBruteForce checks Definition 5.6 directly on a dense grid of the
// additive ε₀-box around p: whether some point x with |pᵢ−xᵢ| ≤ ε₀·pᵢ
// disagrees with p on φ.
func singularBruteForce(pred Pred, p []float64, eps0 float64, grid int) bool {
	want := pred.Eval(p)
	pt := make([]float64, len(p))
	var rec func(i int) bool // reports whether a disagreeing point exists
	rec = func(i int) bool {
		if i == len(p) {
			return pred.Eval(pt) != want
		}
		lo, hi := p[i]*(1-eps0), p[i]*(1+eps0)
		for g := 0; g <= grid; g++ {
			pt[i] = lo + (hi-lo)*float64(g)/float64(grid)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// notSingular is Margin's certificate that p is not an ε₀-singularity: the
// additive box [pᵢ(1−ε₀), pᵢ(1+ε₀)] lies inside the margin orthotope
// [pᵢ/(1+ε), pᵢ/(1−ε)] iff ε ≥ ε₀/(1−ε₀).
func notSingular(pred Pred, p []float64, eps0 float64) bool {
	return pred.Margin(p) >= eps0/(1-eps0)
}

// Example 5.7: the tuple-certainty test conf = 1 can never be decided
// positively; p exactly on a boundary is an ε₀-singularity for every ε₀.
func TestCertaintyTestIsSingular(t *testing.T) {
	phi := Linear([]float64{1}, 1) // x ≥ 1
	for _, eps0 := range []float64{0.001, 0.01, 0.1} {
		if notSingular(phi, []float64{1}, eps0) || !singularBruteForce(phi, []float64{1}, eps0, 8) {
			t.Errorf("p=1 must be an ε₀=%v singularity for conf=1", eps0)
		}
	}
	// But p = 0.9 is detectably below 1 for small ε₀.
	if !notSingular(phi, []float64{0.9}, 0.01) || singularBruteForce(phi, []float64{0.9}, 0.01, 8) {
		t.Error("p=0.9 should not be a 0.01-singularity for x ≥ 1")
	}
}

// Margin's certificate is sound against Definition 5.6: it may call a point
// singular that the brute force finds safe (the margin orthotope is slightly
// larger than the additive box), but never certifies a genuine singularity.
func TestIsSingularMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(2)
		coef := make([]float64, k)
		for i := range coef {
			coef[i] = rng.Float64()*4 - 2
		}
		phi := Linear(coef, rng.Float64()-0.5)
		p := make([]float64, k)
		for i := range p {
			p[i] = 0.1 + 0.8*rng.Float64()
		}
		eps0 := 0.02 + 0.1*rng.Float64()
		if notSingular(phi, p, eps0) && singularBruteForce(phi, p, eps0, 24) {
			t.Fatalf("trial %d: missed singularity (φ=%s, p=%v, ε₀=%v)", trial, phi, p, eps0)
		}
	}
}

func TestArityAndStrings(t *testing.T) {
	a := Linear([]float64{1, 2}, 0.5)
	atom := expr.Ge(expr.Add(p1, expr.Mul(expr.CInt(2), p2)), expr.CFloat(0.5))
	or := mustFromExpr(t, expr.OrOf(atom, expr.NotOf(atom)), 2)
	and := mustFromExpr(t, expr.AndOf(atom, atom), 2)
	if or.Arity() != 2 || and.Arity() != 2 {
		t.Error("arity propagation wrong")
	}
	for _, p := range []Pred{a, or, and, mustFromExpr(t, expr.NotOf(atom), 2)} {
		if p.String() == "" {
			t.Error("empty String()")
		}
	}
	zero := Linear(nil, 0)
	if zero.String() == "" {
		t.Error("degenerate atom should still render")
	}
}

// Fuzz-ish: Margin never panics and stays in [0, EpsMax] for random
// predicates and points, including degenerate coefficients.
func TestMarginTotalAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(3)
		coef := make([]float64, k)
		for i := range coef {
			switch rng.Intn(4) {
			case 0:
				coef[i] = 0
			default:
				coef[i] = rng.Float64()*8 - 4
			}
		}
		phi := Linear(coef, rng.Float64()*2-1)
		p := make([]float64, k)
		for i := range p {
			if rng.Intn(8) == 0 {
				p[i] = 0
			} else {
				p[i] = rng.Float64()
			}
		}
		m := phi.Margin(p)
		if math.IsNaN(m) || m < 0 || m > EpsMax {
			t.Fatalf("margin out of range: %v for %s at %v", m, phi, p)
		}
	}
}
