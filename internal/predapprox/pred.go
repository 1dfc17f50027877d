// Package predapprox implements Section 5 of the paper: deciding
// predicates over approximable values with bounded error probability.
//
// A predicate φ(x₁,…,x_k) is a Boolean combination of atomic conditions
// over k approximable slots. A σ̂ predicate is the expr.Pred tree the parser
// built, over attributes p1..pk; FromExpr decides it there and adds only the
// margin rules: corner-point agreement for each comparison of +,−,·,/
// expressions (Theorem 5.5) and the min/max rules for ∧, ∨, ¬. LinAtom,
// Σ aᵢ·xᵢ ≥ b, has Theorem 5.2's closed-form margin.
//
// The central quantity is the margin ε of a point p̂: the largest ε such
// that all points of the orthotope
//
//	[p̂₁/(1+ε), p̂₁/(1−ε)] × … × [p̂_k/(1+ε), p̂_k/(1−ε)]
//
// agree with p̂ on φ. Lemma 5.1 then bounds the probability of deciding φ
// incorrectly by Σᵢ δᵢ(ε) (or 1−Π(1−δᵢ(ε)) under independence).
//
// A note on Theorem 5.2's closed form: the paper prescribes the larger
// root of the quadratic b·ε² − β·ε + (α−b) = 0. The worst corner value
// W(ε) = Σ aᵢp̂ᵢ/(1+sgn(aᵢp̂ᵢ)ε) is strictly decreasing on [0,1), so the
// genuine touching point is the unique root of W(ε) = b in [0,1): for
// b < 0 that is indeed the larger root, but for b > 0 it is the smaller
// one (the larger root is an artifact of multiplying by (1−ε), which
// vanishes at ε = 1). We select the root lying in [0,1) and validate the
// choice against brute-force orthotope scans (experiment E6).
package predapprox

import (
	"fmt"
	"math"
	"strings"
)

// EpsMax is the supremum of admissible ε values: Lemma 5.1 requires
// −1 < ε < 1, and Remark 5.3 instructs choosing a value close to but
// smaller than 1 when the formulas yield ε ≥ 1.
const EpsMax = 1 - 1e-9

// Pred is a predicate over k approximable slots.
type Pred interface {
	// Eval decides the predicate at point x.
	Eval(x []float64) bool
	// Margin returns the largest ε ∈ [0, EpsMax] such that the closed
	// orthotope [xᵢ/(1+ε), xᵢ/(1−ε)] is homogeneous with respect to the
	// predicate's value at x. A zero margin means x is (numerically) on a
	// decision boundary.
	Margin(x []float64) float64
	// Arity returns the number of slots the predicate is defined over.
	Arity() int
	String() string
}

// LinAtom is the linear inequality Σ Coef[i]·x_i ≥ B (or > B when Strict).
type LinAtom struct {
	Coef   []float64
	B      float64
	Strict bool
}

// Linear builds Σ coef·x ≥ b.
func Linear(coef []float64, b float64) LinAtom { return LinAtom{Coef: coef, B: b} }

// Eval decides the inequality.
func (a LinAtom) Eval(x []float64) bool {
	s := 0.0
	for i, c := range a.Coef {
		s += c * x[i]
	}
	if a.Strict {
		return s > a.B
	}
	return s >= a.B
}

// Arity returns the number of slots.
func (a LinAtom) Arity() int { return len(a.Coef) }

func (a LinAtom) String() string {
	parts := make([]string, 0, len(a.Coef))
	for i, c := range a.Coef {
		if c == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%g*x%d", c, i))
	}
	if len(parts) == 0 {
		parts = append(parts, "0")
	}
	op := ">="
	if a.Strict {
		op = ">"
	}
	return fmt.Sprintf("%s %s %g", strings.Join(parts, " + "), op, a.B)
}

// negated returns the complementary atom: ¬(Σa·x ≥ b) = Σ(−a)·x > −b.
func (a LinAtom) negated() LinAtom {
	neg := make([]float64, len(a.Coef))
	for i, c := range a.Coef {
		neg[i] = -c
	}
	return LinAtom{Coef: neg, B: -a.B, Strict: !a.Strict}
}

// Margin implements the closed form of Theorem 5.2 (with the root
// selection discussed in the package comment). For a point where the atom
// is false, the margin of the complementary atom is computed instead, as
// the algorithm of Figure 3 does via its φ/¬φ switch.
func (a LinAtom) Margin(x []float64) float64 {
	atom := a
	if !a.Eval(x) {
		atom = a.negated()
	}
	return atom.satisfiedMargin(x)
}

// satisfiedMargin computes the Theorem 5.2 ε for a point satisfying the
// atom (in the ≥ reading; strictness does not change the geometry).
func (a LinAtom) satisfiedMargin(x []float64) float64 {
	// A = Σ positive aᵢxᵢ terms, C = Σ negative terms; α = A+C, β = A−C.
	A, C := 0.0, 0.0
	for i, c := range a.Coef {
		t := c * x[i]
		if t > 0 {
			A += t
		} else {
			C += t
		}
	}
	alpha, beta := A+C, A-C
	b := a.B
	if alpha <= b {
		return 0 // on the hyperplane (Remark 5.3); below it only defensively
	}
	if b == 0 {
		return math.Min(alpha/beta, EpsMax) // α/β ∈ (0, 1]
	}
	// The margin is the smallest root of b·ε² − β·ε + (α−b) = 0 in (0,1)
	// (see the package comment); with none, as for β = 0 (roots ±1), the
	// orthotope never reaches the hyperplane. The discriminant β² − α² +
	// (α−2b)² is never negative; were it by rounding, NaN roots give EpsMax.
	sq := math.Sqrt(beta*beta - 4*b*(alpha-b))
	eps := EpsMax
	for _, r := range []float64{(beta - sq) / (2 * b), (beta + sq) / (2 * b)} {
		if r > 0 && r < eps {
			eps = r
		}
	}
	return eps
}

// BruteForceMargin is the test oracle for Margin (experiments E6/E7): the
// largest multiple of step whose orthotope OrthotopeHomogeneous accepts,
// within step of the true margin unless the decision boundary is
// pathologically thin.
func BruteForceMargin(p Pred, x []float64, step float64, grid int) float64 {
	lo := 0.0
	for e := step; e < EpsMax && OrthotopeHomogeneous(p, x, e, grid); e += step {
		lo = e
	}
	return lo
}

// OrthotopeHomogeneous reports whether every point of a grid over the
// radius-eps orthotope around x agrees with the predicate's value at x: the
// oracle experiments E6/E7 check computed margins against.
func OrthotopeHomogeneous(p Pred, x []float64, eps float64, grid int) bool {
	want := p.Eval(x)
	pt := make([]float64, len(x))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(x) {
			return p.Eval(pt) == want
		}
		lo := x[i] / (1 + eps)
		hi := x[i] / (1 - eps)
		if lo > hi {
			lo, hi = hi, lo
		}
		for g := 0; g <= grid; g++ {
			pt[i] = lo + (hi-lo)*float64(g)/float64(grid)
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}
