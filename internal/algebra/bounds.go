package algebra

import (
	"repro/internal/expr"
	"repro/internal/provenance"
	"repro/internal/rel"
)

// This file holds the error-bound accounting of Lemma 6.4 that the plan
// walker runs beside the positive-RA operators: a node result whose input
// passed through an approximate σ̂ carries, per data tuple, a bound µ on
// the probability that the tuple's membership differs from the exact
// query's, and a flag for tuples depending on a potential ε₀-singularity.
// All of it is data-driven: a result with empty annotations is reliable,
// and operators over reliable inputs skip the accounting — and its
// rel.Tuple.Key strings — entirely.

// Reliable reports whether r carries no annotation (µ ≡ 0, no singular
// tuple).
func (r URelResult) Reliable() bool { return len(r.Errs) == 0 && len(r.Singular) == 0 }

// BoundRule gives one output tuple's annotation, from the tuple's row and
// key, in terms of the operator's input annotations.
type BoundRule func(row rel.Tuple, key string) (mu float64, singular bool)

// Bounded annotates out — an operator's result over ins — by rule. When
// every input is reliable it returns out untouched, with nil maps.
func (out URelResult) Bounded(rule BoundRule, ins ...URelResult) URelResult {
	reliable := true
	for _, in := range ins {
		reliable = reliable && in.Reliable()
	}
	if reliable {
		return out
	}
	out.Errs, out.Singular = provenance.ErrMap{}, map[string]bool{}
	for _, ut := range out.Rel.Tuples() {
		k := ut.Row.Key()
		mu, singular := rule(ut.Row, k)
		if mu > 0 {
			out.Errs[k] = mu
		}
		if singular {
			out.Singular[k] = true
		}
	}
	return out
}

// BoundOf looks up one data tuple's annotation in r.
func (r URelResult) BoundOf(row rel.Tuple) (float64, bool) {
	if r.Reliable() {
		return 0, false
	}
	k := row.Key()
	return r.Errs[k], r.Singular[k]
}

// pairBound is the ≺ rule for × (and ⋈, a selection over it):
// µ(⟨r,s⟩) = µ(r) + µ(s).
func pairBound(l URelResult, lrow rel.Tuple, r URelResult, rrow rel.Tuple) (float64, bool) {
	lm, ls := l.BoundOf(lrow)
	rm, rs := r.BoundOf(rrow)
	return lm + rm, ls || rs
}

// ProjectBounds is the ≺ rule for π: (t.Ā, π_Ā(R)) ≺ (t, R), so each
// output tuple accumulates the bounds of every input tuple projecting onto
// it (Example 6.5's fan-in sum). Distinct (D, row) pairs of the input can
// collapse to one output pair; the sum runs over distinct input data
// tuples. It returns the annotations of π_targets(in) — also the
// provenance error of a σ̂ argument's projected tuples.
func ProjectBounds(in URelResult, targets []expr.Target) (provenance.ErrMap, map[string]bool) {
	errs, sing := provenance.ErrMap{}, map[string]bool{}
	seen := map[string]map[string]bool{}
	env := expr.Env{Schema: in.Rel.Schema()}
	outRow := make(rel.Tuple, len(targets))
	for _, ut := range in.Rel.Tuples() {
		env.Tuple = ut.Row
		for i, tg := range targets {
			outRow[i] = tg.Expr.Eval(env)
		}
		inKey, outKey := ut.Row.Key(), outRow.Key()
		if seen[outKey] == nil {
			seen[outKey] = map[string]bool{}
		}
		if seen[outKey][inKey] {
			continue
		}
		seen[outKey][inKey] = true
		errs.Add(outKey, in.Errs[inKey])
		if in.Singular[inKey] {
			sing[outKey] = true
		}
	}
	return errs, sing
}

// selectBound is the provenance part of σ̂'s rule, Lemma 6.4(2) —
// µ(t) = Σᵢ δᵢ(ε) + Σᵢ µ(tᵢ), and t is singular when the decision or any
// tᵢ is — for one combination of argument tuples tᵢ = rows[i][combo[i]],
// annotated by args[i] (ProjectBounds of the σ̂ input). The decision's
// Σᵢ δᵢ(ε) is added by Estimates.Decide.
func selectBound(args []URelResult, rows [][]rel.Tuple, combo []int) (mu float64, singular bool) {
	for a, i := range combo {
		m, s := args[a].BoundOf(rows[a][i])
		mu += m
		singular = singular || s
	}
	return mu, singular
}
