// Package predapprox implements Section 5 of the paper: deciding
// predicates over approximable values with bounded error probability.
//
// A predicate φ(x₁,…,x_k) is a Boolean combination of atomic conditions
// over k approximable slots. A σ̂ predicate is the expr.Pred tree the parser
// built, over attributes p1..pk; Pred decides it there and adds only the
// margin rules: the min/max rules for ∧, ∨, ¬, and for a comparison L op R,
// with f = L − R (R − L for ≤ and <), Theorem 5.2's closed form when f is
// affine in the slots, as in p1 >= 0.5 or 2*p1 - p2/4 < 0.3, and Theorem
// 5.5's corner search for any other +,−,·,/ comparison, as in
// p1 * p2 >= 0.1 or p1 / p2 <= 0.5.
//
// The central quantity is the margin ε of a point p̂: the largest ε such
// that all points of the orthotope
//
//	[p̂₁/(1+ε), p̂₁/(1−ε)] × … × [p̂_k/(1+ε), p̂_k/(1−ε)]
//
// agree with p̂ on φ. Lemma 5.1 then bounds the probability of deciding φ
// incorrectly by Σᵢ δᵢ(ε) (or 1−Π(1−δᵢ(ε)) under independence).
//
// Theorem 5.2's closed form, for f = Σ aᵢxᵢ − b with α = Σ aᵢp̂ᵢ and
// β = Σ |aᵢp̂ᵢ|: the paper prescribes the larger root of b·ε² − β·ε + (α−b)
// = 0, but the touching point is the unique root in [0,1) of W(ε) = b, W
// the strictly decreasing worst corner value Σ aᵢp̂ᵢ/(1+sgn(aᵢp̂ᵢ)ε). That
// is the larger root for b < 0 and the smaller for b > 0 (the larger one is
// an artifact of multiplying by 1−ε, which vanishes at ε = 1): in both cases
// (β − √D)/(2b), D = β² − 4b(α−b), which we evaluate in its conjugate form
// 2(α−b)/(β + √D). It does not cancel near b = 0 and is α/β at b = 0.
// Experiment E6 validates it against brute-force orthotope scans.
package predapprox

import (
	"fmt"

	"repro/internal/expr"
)

// EpsMax is the supremum of admissible ε values: Lemma 5.1 requires
// −1 < ε < 1, and Remark 5.3 instructs choosing a value close to but
// smaller than 1 when the formulas yield ε ≥ 1.
const EpsMax = 1 - 1e-9

// Pred is a σ̂ predicate: the parser's tree over p1..pk, naming x[0..k−1],
// and k. It holds only the tree, so concurrent evaluations share it.
type Pred struct {
	p     expr.Pred
	arity int
}

// Linear builds 0 + Σ coef·x ≥ b over len(coef) slots, skipping zero
// coefficients. Its margin is Theorem 5.2's closed form.
func Linear(coef []float64, b float64) Pred {
	var sum expr.Expr = expr.CInt(0)
	for i, c := range coef {
		if c != 0 {
			sum = expr.Add(sum, expr.Mul(expr.CFloat(c), expr.A(fmt.Sprintf("p%d", i+1))))
		}
	}
	return Pred{p: expr.Ge(sum, expr.CFloat(b)), arity: len(coef)}
}

// RatioAtom builds the paper's running example φ(x₁,x₂) = (x₁/x₂ ≥ c) in
// its linearized form x₁ − c·x₂ ≥ 0 (Example 5.4).
func RatioAtom(num, den int, c float64, arity int) Pred {
	coef := make([]float64, arity)
	coef[num], coef[den] = 1, -c
	return Linear(coef, 0)
}

// Eval decides the predicate at point x.
func (p Pred) Eval(x []float64) bool { return eval(p.p, x) }

// Margin returns the largest ε ∈ [0, EpsMax] whose closed orthotope
// [xᵢ/(1+ε), xᵢ/(1−ε)] agrees with x on the predicate: 0 on a boundary.
func (p Pred) Margin(x []float64) float64 { return margin(p.p, x) }

// Arity returns the number of slots the predicate is defined over.
func (p Pred) Arity() int { return p.arity }

// String renders the tree as the parser's own expr package does.
func (p Pred) String() string { return p.p.String() }

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
