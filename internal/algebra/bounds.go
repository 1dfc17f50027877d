package algebra

import (
	"iter"

	"repro/internal/expr"
	"repro/internal/rel"
)

// This file holds the error-bound accounting of Lemma 6.4 that the plan
// walker runs beside the positive-RA operators: a node result whose input
// passed through an approximate σ̂ carries, per data tuple, a bound µ on
// the probability that the tuple's membership differs from the exact
// query's, and a flag for tuples depending on a potential ε₀-singularity.
// All of it is data-driven: a result without annotated tuples is reliable,
// and operators over reliable inputs skip the accounting entirely.

// Bounds are the Lemma 6.4 annotations of one result: its annotated data
// tuples — µ > 0 or singular — each once, in a rel.Relation of the
// result's schema, with µ and the flag in slices beside it, addressed by
// position. µ is not clamped during propagation (a sum of bounds may
// exceed 1); readers clamp for reporting. A nil *Bounds annotates nothing.
type Bounds struct {
	rows     *rel.Relation
	mu       []float64
	singular []bool
}

func newBounds(schema rel.Schema) *Bounds { return &Bounds{rows: rel.NewRelation(schema)} }

// Len returns the number of annotated tuples.
func (b *Bounds) Len() int {
	if b == nil {
		return 0
	}
	return b.rows.Len()
}

// at returns the position of row's annotation, creating a zero one — over
// a copy of row when clone is set — if absent.
func (b *Bounds) at(row rel.Tuple, clone bool) int {
	if pos := b.rows.Pos(row); pos >= 0 {
		return pos
	}
	if clone {
		row = row.Clone()
	}
	b.rows.AddOwned(row)
	b.mu, b.singular = append(b.mu, 0), append(b.singular, false)
	return b.rows.Len() - 1
}

// set annotates row, which out's relation owns.
func (b *Bounds) set(row rel.Tuple, mu float64, singular bool) {
	pos := b.at(row, false)
	b.mu[pos], b.singular[pos] = mu, singular
}

// BoundOf returns one data tuple's annotation: its unclamped µ and whether
// it depends on a potential singularity; (0, false) for a reliable tuple.
func (b *Bounds) BoundOf(row rel.Tuple) (mu float64, singular bool) {
	if b.Len() > 0 {
		if pos := b.rows.Pos(row); pos >= 0 {
			return b.mu[pos], b.singular[pos]
		}
	}
	return 0, false
}

// All iterates the annotated tuples in the order they were first
// annotated, with their unclamped µ.
func (b *Bounds) All() iter.Seq2[rel.Tuple, float64] {
	return func(yield func(rel.Tuple, float64) bool) {
		for i := 0; i < b.Len(); i++ {
			if !yield(b.rows.Tuples()[i], b.mu[i]) {
				return
			}
		}
	}
}

// Worst returns the largest µ over the annotated tuples and whether any of
// them is singular. With skipSingular the singular tuples' µ are left out:
// Theorem 6.7 covers only tuples without singularities in their
// provenance, so neither termination nor reporting counts them.
func (b *Bounds) Worst(skipSingular bool) (mu float64, anySingular bool) {
	for i := 0; i < b.Len(); i++ {
		anySingular = anySingular || b.singular[i]
		if b.mu[i] > mu && !(skipSingular && b.singular[i]) {
			mu = b.mu[i]
		}
	}
	return mu, anySingular
}

// Reliable reports whether r carries no annotation (µ ≡ 0, no singular
// tuple).
func (r URelResult) Reliable() bool { return r.Bounds.Len() == 0 }

// BoundRule gives one output tuple's annotation in terms of the operator's
// input annotations.
type BoundRule func(row rel.Tuple) (mu float64, singular bool)

// Bounded annotates out — an operator's result over ins — by rule. When
// every input is reliable it returns out untouched, with nil Bounds.
func (out URelResult) Bounded(rule BoundRule, ins ...URelResult) URelResult {
	reliable := true
	for _, in := range ins {
		reliable = reliable && in.Reliable()
	}
	if reliable {
		return out
	}
	out.Bounds = newBounds(out.Rel.Schema())
	for _, ut := range out.Rel.Tuples() {
		// A data tuple recurs once per D it pairs with; the rule is a
		// function of the row alone, so the repeats set the same values.
		if mu, singular := rule(ut.Row); mu > 0 || singular {
			out.Bounds.set(ut.Row, mu, singular)
		}
	}
	return out
}

// pairBound is the ≺ rule for × (and ⋈, a selection over it):
// µ(⟨r,s⟩) = µ(r) + µ(s).
func pairBound(l *Bounds, lrow rel.Tuple, r *Bounds, rrow rel.Tuple) (float64, bool) {
	lm, ls := l.BoundOf(lrow)
	rm, rs := r.BoundOf(rrow)
	return lm + rm, ls || rs
}

// ProjectBounds is the ≺ rule for π: (t.Ā, π_Ā(R)) ≺ (t, R), so each
// output tuple accumulates the bounds of every input tuple projecting onto
// it (Example 6.5's fan-in sum). Distinct (D, row) pairs of the input can
// collapse to one output pair; the sum runs over distinct input data
// tuples, in their order in in.Rel. It returns the annotations of
// π_targets(in) — also the provenance error of a σ̂ argument's projected
// tuples.
func ProjectBounds(in URelResult, targets []expr.Target) *Bounds {
	if in.Reliable() {
		return nil
	}
	schema := make(rel.Schema, len(targets))
	for c, tg := range targets {
		schema[c] = tg.As
	}
	out := newBounds(schema)
	counted := make([]bool, in.Bounds.Len())
	env := expr.Env{Schema: in.Rel.Schema()}
	outRow := make(rel.Tuple, len(targets))
	for _, ut := range in.Rel.Tuples() {
		i := in.Bounds.rows.Pos(ut.Row)
		if i < 0 || counted[i] {
			continue // a reliable tuple adds nothing; an annotated one adds once
		}
		counted[i] = true
		env.Tuple = ut.Row
		for c, tg := range targets {
			outRow[c] = tg.Expr.Eval(env)
		}
		o := out.at(outRow, true)
		out.mu[o] += in.Bounds.mu[i]
		out.singular[o] = out.singular[o] || in.Bounds.singular[i]
	}
	return out
}

// selectBound is the provenance part of σ̂'s rule, Lemma 6.4(2) —
// µ(t) = Σᵢ δᵢ(ε) + Σᵢ µ(tᵢ), and t is singular when the decision or any
// tᵢ is — for one combination of argument tuples tᵢ = rows[i][combo[i]],
// annotated by args[i] (ProjectBounds of the σ̂ input). The decision's
// Σᵢ δᵢ(ε) is added by Estimates.Decide.
func selectBound(args []*Bounds, rows [][]rel.Tuple, combo []int) (mu float64, singular bool) {
	for a, i := range combo {
		m, s := args[a].BoundOf(rows[a][i])
		mu += m
		singular = singular || s
	}
	return mu, singular
}
