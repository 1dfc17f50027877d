package predapprox

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// FromExpr validates p as a σ̂ predicate over k approximated values, to be
// decided on p itself. Each comparison L op R is Theorem 5.5's atom f ≥ 0
// (f > 0 for > and <), f = L − R for ≥ and >, f = R − L for ≤ and <, in
// float64: an inequality (equality is a singularity everywhere, Example
// 5.7) over numeric constants and p1..pk, any case, each slot at most once
// as the corner criterion needs. Errors read as the parser's, its caller.
func FromExpr(p expr.Pred, k int) (Pred, error) {
	if err := validate(p, k); err != nil {
		return Pred{}, err
	}
	return Pred{p: p, arity: k}, nil
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
		if m, ok := closedForm(p, x); ok {
			return m
		}
		return cornerMargin(p, x)
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

// sums are Theorem 5.2's for f = Σ aᵢxᵢ − b: Σ aᵢxᵢ > 0, Σ aᵢxᵢ ≤ 0, and b.
type sums struct{ pos, neg, b float64 }

// closedForm returns Theorem 5.2's margin for c at x, folding f on the
// stack so the tree stays the whole state. It reports false, leaving c to
// the corner search, when f is not affine in the slots, when no slot term
// is non-zero (f is constant, as in 0 >= 0 or (p1 + p2) * 0 <= 0), or when
// f or a sum is not finite (as in p2 <= (p3 - p1) / 0).
func closedForm(c expr.Cmp, x []float64) (float64, bool) {
	var s sums
	l, r := 1.0, -1.0
	if c.Op == expr.CmpLe || c.Op == expr.CmpLt {
		l, r = -1, 1
	}
	if !s.fold(c.L, x, l) || !s.fold(c.R, x, r) {
		return 0, false
	}
	alpha, beta, b := s.pos+s.neg, s.pos-s.neg, s.b
	f, _ := value(c, x, 0, 0)
	if beta == 0 || math.IsNaN(beta-beta+b-b+f-f) { // v − v is NaN iff v is ±Inf or NaN
		return 0, false
	}
	if !holds(c, f) { // ¬φ's atom −f ≥ 0 decides, as in Figure 3's φ/¬φ switch
		alpha, b = -alpha, -b
	}
	if alpha <= b {
		return 0, true // on the hyperplane (Remark 5.3); below it only defensively
	}
	// The root in conjugate form (package comment), EpsMax past it or at NaN.
	eps := 2 * (alpha - b) / (beta + math.Sqrt(beta*beta-4*b*(alpha-b)))
	if !(eps < EpsMax) {
		return EpsMax, true
	}
	return eps, true
}

// fold adds m·e to s, reaching each slot with m times the constant factors
// and divisors above it, and reports whether e is affine in the slots: no
// product of two slot-reading factors and no slot-reading divisor.
func (s *sums) fold(e expr.Expr, x []float64, m float64) bool {
	switch e := e.(type) {
	case expr.Const:
		s.b -= m * e.V.AsFloat()
	case expr.Attr:
		if t := m * x[slot(e.Name)]; t > 0 {
			s.pos += t
		} else {
			s.neg += t
		}
	case expr.Arith:
		switch e.Op {
		case expr.OpAdd:
			return s.fold(e.L, x, m) && s.fold(e.R, x, m)
		case expr.OpSub:
			return s.fold(e.L, x, m) && s.fold(e.R, x, -m)
		}
		var nl, nr int // slots L and R read
		lv, rv := arith(e.L, x, 0, 0, &nl), arith(e.R, x, 0, 0, &nr)
		switch {
		case e.Op == expr.OpMul && nl == 0:
			return s.fold(e.R, x, m*lv)
		case e.Op == expr.OpMul && nr == 0:
			return s.fold(e.L, x, m*rv)
		case e.Op == expr.OpDiv && nr == 0:
			return s.fold(e.L, x, m/rv)
		}
		return false
	}
	return true
}

// cornerMargin maximizes ε by binary search (the procedure following
// Theorem 5.5): a candidate ε qualifies iff all 2^k corner points of the
// orthotope agree with the center, which by the theorem implies the whole
// orthotope agrees. Monotonicity in ε (smaller orthotopes are contained in
// larger homogeneous ones) makes binary search exact up to tolerance.
func cornerMargin(c expr.Cmp, x []float64) float64 {
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
