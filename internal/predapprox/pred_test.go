package predapprox

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// TestExample54Golden reproduces Example 5.4 / Figure 2 exactly:
// φ(x₁,x₂) = (x₁/x₂ ≥ 1/2), linearized 2x₁ − x₂ ≥ 0 (equivalently
// x₁ − ½x₂ ≥ 0), at p̂ = (1/2, 1/2): ε = 1/3, maximal orthotope
// [3/8, 3/4]², touching the hyperplane at (3/8, 3/4).
func TestExample54Golden(t *testing.T) {
	phi := RatioAtom(0, 1, 0.5, 2)
	p := []float64{0.5, 0.5}
	if !phi.Eval(p) {
		t.Fatal("φ(p̂) should hold")
	}
	eps := phi.Margin(p)
	if math.Abs(eps-1.0/3) > 1e-12 {
		t.Fatalf("ε = %v, want 1/3", eps)
	}
	lo, hi := p[0]/(1+eps), p[0]/(1-eps)
	if math.Abs(lo-3.0/8) > 1e-12 || math.Abs(hi-3.0/4) > 1e-12 {
		t.Errorf("orthotope = [%v, %v], want [3/8, 3/4]", lo, hi)
	}
	// Touch point (p̂₁/(1+ε), p̂₂/(1−ε)) = (3/8, 3/4) lies on 2x₁ = x₂.
	x1, x2 := p[0]/(1+eps), p[1]/(1-eps)
	if math.Abs(2*x1-x2) > 1e-12 {
		t.Errorf("touch point (%v, %v) not on hyperplane", x1, x2)
	}
}

// The b > 0 root-selection case documented in the package comment: the
// paper's "larger root" would give ε = 1 here; the genuine margin is 1/4.
func TestTheorem52RootSelectionPositiveB(t *testing.T) {
	phi := Linear([]float64{1}, 0.4) // x₁ ≥ 0.4
	p := []float64{0.5}
	eps := phi.Margin(p)
	if math.Abs(eps-0.25) > 1e-12 {
		t.Fatalf("ε = %v, want 0.25 (smaller root)", eps)
	}
	// Verify: at ε the orthotope touches the boundary.
	if lo := p[0] / (1 + eps); math.Abs(lo-0.4) > 1e-12 {
		t.Errorf("lower end %v should be 0.4", lo)
	}
}

func TestTheorem52NegativeB(t *testing.T) {
	// x₁ ≤ 0.4 at 0.3, i.e. −x₁ ≥ −0.4: margin until 0.3/(1−ε) = 0.4.
	phi := Linear([]float64{-1}, -0.4)
	p := []float64{0.3}
	eps := phi.Margin(p)
	if math.Abs(eps-0.25) > 1e-12 {
		t.Fatalf("ε = %v, want 0.25", eps)
	}
}

// A b near 0 must not cancel Theorem 5.2's root: the margin is continuous
// in b, so it stays at b = 0's α/β, and no wider than the brute-force scan
// finds. The textbook form (β − √D)/(2b) returned EpsMax at b = 1e-17.
func TestTheorem52RootNearZeroB(t *testing.T) {
	p := []float64{0.335, 0.189} // −x₁ + x₂ ≥ b is false; its negation decides
	at0 := Linear([]float64{-1, 1}, 0).Margin(p)
	if math.Abs(at0-0.146/0.524) > 1e-12 {
		t.Fatalf("b = 0: ε = %v, want α/β = %v", at0, 0.146/0.524)
	}
	for _, b := range []float64{1e-17, -1e-17, 1e-12, 5e-324} {
		phi := Linear([]float64{-1, 1}, b)
		got := phi.Margin(p)
		if math.Abs(got-at0) > 1e-11 {
			t.Errorf("b = %g: ε = %v, want ≈ %v", b, got, at0)
		}
		if bf := BruteForceMargin(phi, p, 0.001, 4); got > bf+0.001 {
			t.Errorf("b = %g: ε = %v exceeds the brute-force margin %v", b, got, bf)
		}
	}
}

func TestMarginOnHyperplaneIsZero(t *testing.T) {
	phi := Linear([]float64{1, -1}, 0) // x₁ ≥ x₂
	if eps := phi.Margin([]float64{0.5, 0.5}); eps != 0 {
		t.Errorf("on-hyperplane margin = %v, want 0 (Remark 5.3)", eps)
	}
}

func TestMarginFalsePointUsesNegation(t *testing.T) {
	phi := Linear([]float64{1}, 0.8) // x₁ ≥ 0.8
	p := []float64{0.4}              // false
	if phi.Eval(p) {
		t.Fatal("should be false")
	}
	// ¬φ: −x₁ > −0.8; margin until 0.4/(1−ε) = 0.8 → ε = 0.5.
	eps := phi.Margin(p)
	if math.Abs(eps-0.5) > 1e-12 {
		t.Errorf("margin of false point = %v, want 0.5", eps)
	}
}

func TestDegenerateConstantAtom(t *testing.T) {
	phi := Linear([]float64{0, 0}, -1) // 0 ≥ −1: always true
	eps := phi.Margin([]float64{0.5, 0.5})
	if eps < EpsMax {
		t.Errorf("constant predicate margin = %v, want EpsMax", eps)
	}
	psi := Linear([]float64{1}, 0) // x₁ ≥ 0, true for any positive x
	if eps := psi.Margin([]float64{0.7}); eps < EpsMax {
		t.Errorf("x≥0 at positive x margin = %v, want EpsMax", eps)
	}
}

// Theorem 5.2 closed form vs brute-force orthotope scan on random linear
// atoms (experiment E6's core assertion).
func TestLinearMarginMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(3)
		coef := make([]float64, k)
		for i := range coef {
			coef[i] = math.Round((rng.Float64()*4-2)*10) / 10
		}
		b := math.Round((rng.Float64()*1.2-0.6)*10) / 10
		phi := Linear(coef, b)
		p := make([]float64, k)
		for i := range p {
			p[i] = 0.1 + 0.8*rng.Float64()
		}
		got := phi.Margin(p)
		bf := BruteForceMargin(phi, p, 0.004, 6)
		// Brute force underestimates by up to one step; the closed form
		// must lie within [bf, bf + 2 steps] when not clamped.
		if got < bf-0.005 || (got < EpsMax-1e-6 && got > bf+0.012) {
			t.Fatalf("trial %d: closed-form ε=%v vs brute-force %v (φ=%s, p=%v)", trial, got, bf, phi, p)
		}
	}
}

// Boolean combinations: the composed margin must be sound — the orthotope
// it certifies must actually be homogeneous.
func TestCompositeMarginSound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		mkAtom := func() expr.Pred { // a₁·p1 + a₂·p2 ≥ b
			a1, a2 := expr.CFloat(rng.Float64()*4-2), expr.CFloat(rng.Float64()*4-2)
			return expr.Ge(expr.Add(expr.Mul(a1, p1), expr.Mul(a2, p2)), expr.CFloat(rng.Float64()*1.2-0.6))
		}
		var tree expr.Pred
		switch rng.Intn(4) {
		case 0:
			tree = expr.AndOf(mkAtom(), mkAtom())
		case 1:
			tree = expr.OrOf(mkAtom(), mkAtom())
		case 2:
			tree = expr.NotOf(expr.AndOf(mkAtom(), mkAtom()))
		default:
			tree = expr.OrOf(expr.AndOf(mkAtom(), mkAtom()), mkAtom())
		}
		phi := mustFromExpr(t, tree, 2)
		p := []float64{0.1 + 0.8*rng.Float64(), 0.1 + 0.8*rng.Float64()}
		m := phi.Margin(p)
		if m <= 1e-9 {
			continue
		}
		probe := m * 0.98
		if !OrthotopeHomogeneous(phi, p, probe, 8) {
			t.Fatalf("trial %d: margin %v not homogeneous for %s at %v", trial, m, phi, p)
		}
	}
}

func TestPaperInductiveRulesOnSatisfiedBranch(t *testing.T) {
	// When both conjuncts are true, ε_{φ∧ψ} = min; when some disjunct is
	// true, ε_{φ∨ψ} = max over true disjuncts (the paper's rules).
	a := expr.Ge(p1, expr.CFloat(0.2)) // margin at 0.5: 0.5/(1+ε)=0.2 → ε=1.5 → clamp... compute below
	b := expr.Ge(p1, expr.CFloat(0.4)) // margin at 0.5: 0.25
	p := []float64{0.5}
	ma, mb := mustFromExpr(t, a, 1).Margin(p), mustFromExpr(t, b, 1).Margin(p)
	if got := mustFromExpr(t, expr.AndOf(a, b), 1).Margin(p); got != math.Min(ma, mb) {
		t.Errorf("And margin %v != min(%v, %v)", got, ma, mb)
	}
	if got := mustFromExpr(t, expr.OrOf(a, b), 1).Margin(p); got != math.Max(ma, mb) {
		t.Errorf("Or margin %v != max(%v, %v)", got, ma, mb)
	}
}

func TestNotMarginEqualsChild(t *testing.T) {
	a := mustFromExpr(t, expr.Ge(p1, expr.CFloat(0.4)), 1)
	notA := mustFromExpr(t, expr.NotOf(expr.Ge(p1, expr.CFloat(0.4))), 1)
	p := []float64{0.5}
	if notA.Margin(p) != a.Margin(p) {
		t.Error("negation must preserve the homogeneous orthotope")
	}
	if notA.Eval(p) == a.Eval(p) {
		t.Error("negation must flip the value")
	}
}

func TestAndOrFalseBranches(t *testing.T) {
	// And with one false child: margin = max over false children.
	tr := expr.Ge(p1, expr.CFloat(0.1))  // true at 0.5, wide margin
	fa := expr.Ge(p1, expr.CFloat(0.8))  // false at 0.5, margin 0.375: 0.5/(1−ε)=0.8 → ε=0.375
	fb := expr.Ge(p1, expr.CFloat(0.55)) // false at 0.5, margin: 0.5/(1−ε)=0.55 → ε≈0.0909
	p := []float64{0.5}
	and := mustFromExpr(t, expr.AndOf(tr, fa, fb), 1)
	if and.Eval(p) {
		t.Fatal("conjunction should be false")
	}
	want := mustFromExpr(t, fa, 1).Margin(p)
	if got := and.Margin(p); math.Abs(got-want) > 1e-12 {
		t.Errorf("And false-branch margin = %v, want %v", got, want)
	}
	// Or with all children false: margin = min over children.
	or := mustFromExpr(t, expr.OrOf(fa, fb), 1)
	want = math.Min(mustFromExpr(t, fa, 1).Margin(p), mustFromExpr(t, fb, 1).Margin(p))
	if got := or.Margin(p); math.Abs(got-want) > 1e-12 {
		t.Errorf("Or all-false margin = %v, want %v", got, want)
	}
}

func TestRatioAtom(t *testing.T) {
	// x0/x1 ≥ 2 at (0.8, 0.2): 0.8 − 2·0.2 = 0.4 ≥ 0 true.
	phi := RatioAtom(0, 1, 2, 2)
	if !phi.Eval([]float64{0.8, 0.2}) {
		t.Error("ratio atom eval wrong")
	}
	if phi.Eval([]float64{0.2, 0.8}) {
		t.Error("ratio atom eval wrong (false case)")
	}
}
