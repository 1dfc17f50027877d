package predapprox

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// exprPred is a σ̂ predicate as the parser built it, over attributes p1..pk
// naming x[0..k−1]. It holds nothing but the tree, so one prepared query's
// predicate serves concurrent evaluations.
type exprPred struct {
	p     expr.Pred
	arity int
}

// FromExpr validates p as a σ̂ predicate over k approximated values, to be
// decided on p itself. Each comparison L op R is Theorem 5.5's atom f ≥ 0
// (f > 0 for > and <), f = L − R for ≥ and >, f = R − L for ≤ and <, in
// float64: an inequality (equality is a singularity everywhere, Example
// 5.7) over numeric constants and p1..pk, any case, each slot at most once
// as the corner criterion needs. Errors read as the parser's, its caller.
func FromExpr(p expr.Pred, k int) (Pred, error) {
	if err := validate(p, k); err != nil {
		return nil, err
	}
	return exprPred{p: p, arity: k}, nil
}

func validate(p expr.Pred, k int) error {
	var kids []expr.Pred
	switch n := p.(type) {
	case expr.And:
		kids = n.Kids
	case expr.Or:
		kids = n.Kids
	case expr.Not:
		kids = []expr.Pred{n.Kid}
	case expr.Cmp:
		counts := make([]int, k) // of f's slots, L's and R's
		if err := countSlots(expr.Sub(n.L, n.R), counts); err != nil {
			return err
		}
		if n.Op == expr.CmpEq || n.Op == expr.CmpNe {
			return fmt.Errorf("parser: (in)equality %s over approximated values is a singularity everywhere; use <=, <, >= or >", n.Op)
		}
		for i, c := range counts {
			if c > 1 {
				return fmt.Errorf("predapprox: slot x%d occurs %d times; Theorem 5.5 requires single occurrence", i, c)
			}
		}
	default:
		return fmt.Errorf("parser: unsupported σ̂ predicate node %T", p)
	}
	for _, kid := range kids {
		if err := validate(kid, k); err != nil {
			return err
		}
	}
	return nil
}

// countSlots checks e's leaves and increments counts[i] for every
// occurrence of slot i.
func countSlots(e expr.Expr, counts []int) error {
	switch n := e.(type) {
	case expr.Const:
		if !n.V.IsNumeric() {
			return fmt.Errorf("parser: σ̂ predicate constant %v is not numeric", n.V)
		}
	case expr.Attr:
		name := strings.ToLower(n.Name)
		i, err := strconv.Atoi(strings.TrimPrefix(name, "p"))
		if !strings.HasPrefix(name, "p") || err != nil || i < 1 || i > len(counts) {
			return fmt.Errorf("parser: σ̂ predicate variable %q must be p1..p%d", n.Name, len(counts))
		}
		counts[i-1]++
	case expr.Arith:
		if err := countSlots(n.L, counts); err != nil {
			return err
		}
		return countSlots(n.R, counts)
	default:
		return fmt.Errorf("parser: unsupported σ̂ predicate expression %T", e)
	}
	return nil
}

// Eval, Margin, Arity (k) and String (the parser's own rendering) work on
// the parser's tree.
func (e exprPred) Eval(x []float64) bool      { return eval(e.p, x) }
func (e exprPred) Margin(x []float64) float64 { return margin(e.p, x) }
func (e exprPred) Arity() int                 { return e.arity }
func (e exprPred) String() string             { return e.p.String() }

func eval(p expr.Pred, x []float64) bool {
	switch p := p.(type) {
	case expr.And:
		return all(p.Kids, x, true)
	case expr.Or:
		return !all(p.Kids, x, false)
	case expr.Not:
		return !eval(p.Kid, x)
	case expr.Cmp:
		f, _ := value(p, x, 0, 0)
		return holds(p, f)
	}
	return false
}

// all reports whether every kid evaluates to v at x.
func all(kids []expr.Pred, x []float64, v bool) bool {
	for _, k := range kids {
		if eval(k, x) != v {
			return false
		}
	}
	return true
}

func margin(p expr.Pred, x []float64) float64 {
	switch p := p.(type) {
	case expr.And:
		return combine(p.Kids, x, eval(p, x), true)
	case expr.Or:
		return combine(p.Kids, x, eval(p, x), false)
	case expr.Not:
		return margin(p.Kid, x) // ¬φ's homogeneous orthotope is φ's
	case expr.Cmp:
		return cmpMargin(p, x)
	}
	return 0
}

// combine is the paper's rule for a conjunction (and) or disjunction whose
// value at x is v: only the kids that agree with v decide it. A true
// conjunction or false disjunction needs every kid to keep its value, so
// its margin is their minimum (ε_{φ∧ψ}); otherwise keeping any one of them
// suffices, so it is their maximum (ε_{φ∨ψ}).
func combine(kids []expr.Pred, x []float64, v, and bool) float64 {
	m, every := 0.0, v == and
	if every {
		m = EpsMax
	}
	for _, k := range kids {
		if eval(k, x) != v {
			continue
		}
		if km := margin(k, x); every && km < m || !every && km > m {
			m = km
		}
	}
	return m
}

// cmpMargin maximizes ε by binary search (the procedure following Theorem
// 5.5): a candidate ε qualifies iff all 2^k corner points of the orthotope
// agree with the center, which by the theorem implies the whole orthotope
// agrees. Monotonicity in ε (smaller orthotopes are contained in larger
// homogeneous ones) makes binary search exact up to tolerance.
func cmpMargin(c expr.Cmp, x []float64) float64 {
	f, k := value(c, x, 0, 0)
	if math.IsNaN(f) { // every corner of radius 0 is x itself
		return 0
	}
	want := holds(c, f)
	lo, hi := 0.0, EpsMax
	if cornersAgree(c, x, hi, want, k) {
		return hi
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if cornersAgree(c, x, mid, want, k) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// cornersAgree checks the 2^k corners of the radius-eps orthotope, k being
// the number of slots c reads. A NaN corner means a division blew up inside
// the orthotope, which counts as disagreement.
func cornersAgree(c expr.Cmp, x []float64, eps float64, want bool, k int) bool {
	for mask := 0; mask < 1<<k; mask++ {
		if f, _ := value(c, x, eps, mask); math.IsNaN(f) || holds(c, f) != want {
			return false
		}
	}
	return true
}

// holds decides f ≥ 0, or f > 0 for a strict comparison; NaN never holds.
func holds(c expr.Cmp, f float64) bool {
	return f > 0 || f == 0 && c.Op != expr.CmpGt && c.Op != expr.CmpLt
}

// value returns the comparison's f, and the number of slots it reads, at
// the corner of the radius-eps orthotope around x that mask selects: the
// slot read n-th is x[i]/(1+eps) when bit n of mask is set and x[i]/(1−eps)
// otherwise, so eps = 0 is x itself. Division by zero gives ±Inf or NaN.
func value(c expr.Cmp, x []float64, eps float64, mask int) (float64, int) {
	n := 0
	l, r := arith(c.L, x, eps, mask, &n), arith(c.R, x, eps, mask, &n)
	if c.Op == expr.CmpLe || c.Op == expr.CmpLt {
		return r - l, n
	}
	return l - r, n
}

func arith(e expr.Expr, x []float64, eps float64, mask int, n *int) float64 {
	switch e := e.(type) {
	case expr.Const:
		return e.V.AsFloat()
	case expr.Attr:
		*n++
		if mask>>(*n-1)&1 != 0 {
			return x[slot(e.Name)] / (1 + eps)
		}
		return x[slot(e.Name)] / (1 - eps)
	case expr.Arith:
		l, r := arith(e.L, x, eps, mask, n), arith(e.R, x, eps, mask, n)
		switch e.Op {
		case expr.OpAdd:
			return l + r
		case expr.OpSub:
			return l - r
		case expr.OpMul:
			return l * r
		case expr.OpDiv:
			return l / r
		}
	}
	return math.NaN()
}

// slot returns the index i−1 of an attribute pi that countSlots accepted,
// read from its ASCII digits without allocating.
func slot(name string) int {
	i := 0
	for j := 0; j < len(name); j++ {
		if c := name[j]; c >= '0' && c <= '9' {
			i = 10*i + int(c-'0')
		}
	}
	return i - 1
}

// RatioAtom builds the paper's running example φ(x₁,x₂) = (x₁/x₂ ≥ c) in
// its linearized form x₁ − c·x₂ ≥ 0 (Example 5.4).
func RatioAtom(num, den int, c float64, arity int) LinAtom {
	coef := make([]float64, arity)
	coef[num] = 1
	coef[den] = -c
	return Linear(coef, 0)
}
