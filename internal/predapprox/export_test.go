package predapprox

import "repro/internal/expr"

// ClosedForm and CornerMargin expose the two margins of a one-comparison
// predicate to the external tests: Theorem 5.2's closed form, with whether
// it applies at x, and Theorem 5.5's corner search.
func ClosedForm(p Pred, x []float64) (float64, bool) { return closedForm(p.p.(expr.Cmp), x) }

func CornerMargin(p Pred, x []float64) float64 { return cornerMargin(p.p.(expr.Cmp), x) }
