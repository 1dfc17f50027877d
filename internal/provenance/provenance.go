// Package provenance holds the closed-form error bounds of Section 6 of
// the paper: the balanced per-value Karp–Luby bound δ'(ε, l) that every
// approximate selection adds to its output tuples (Lemma 6.4), and the
// overall bound of Proposition 6.6 with its inversion, Theorem 6.7's round
// cap. The propagation of the per-tuple bounds µ along the provenance
// relation ≺ lives beside the operators, in algebra (bounds.go).
package provenance

import (
	"math"
)

// DeltaPrime is the paper's balanced per-value error bound
// δ'(ε, l) = 2·e^{−l·ε²/3}, the Karp–Luby Chernoff bound after l rounds
// of |F| trials each (end of Section 5).
func DeltaPrime(eps float64, l int64) float64 {
	if l <= 0 {
		return 1
	}
	return math.Min(1, 2*math.Exp(-float64(l)*eps*eps/3))
}

// RoundsFor inverts DeltaPrime: the smallest l with δ'(ε, l) ≤ target,
// i.e. l = ⌈3·ln(2/target)/ε²⌉.
func RoundsFor(eps, target float64) int64 {
	return int64(math.Ceil(3 * math.Log(2/target) / (eps * eps)))
}

// Proposition66Bound is the closed-form overall bound of Proposition 6.6:
// k·d·n^{k·d}·δ'(ε₀, l) for a query of σ̂-nesting depth d, arity/argument
// bound k, and active-domain size n, assuming no singularities in the
// provenance. It overflows to +Inf for large parameters, which is fine:
// the bound is only informative when small.
func Proposition66Bound(k, d, n int, eps0 float64, l int64) float64 {
	return float64(k) * float64(d) * math.Pow(float64(n), float64(k*d)) * DeltaPrime(eps0, l)
}

// RoundsForProposition66 returns the l that pushes the Proposition 6.6
// bound below delta: l ≥ 3·ln(2·k·d·n^{k·d}/δ)/ε₀² (Theorem 6.7's l₀). The
// logarithm is taken term by term, as ln(2kd/δ) + k·d·ln n, so n^{k·d}
// never overflows, and an l beyond int64 saturates at math.MaxInt64.
func RoundsForProposition66(k, d, n int, eps0, delta float64) int64 {
	logInner := math.Log(2*float64(k)*float64(d)/delta) + float64(k)*float64(d)*math.Log(float64(n))
	l := math.Ceil(3 * logInner / (eps0 * eps0))
	if l >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(l)
}
