package algebra

import (
	"strconv"

	"repro/internal/dnf"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
	"repro/internal/vars"
)

// Estimators is what Theorem 6.7 varies between exact and approximate
// evaluation: how the confidence of a lineage group is obtained. Everything
// else of conf and σ̂ — projection, lineage grouping, the natural join of
// the arguments, output rows and schema, Lemma 6.4 bookkeeping — is the
// walker's, below. The default is exact (#P computation).
type Estimators interface {
	// Estimate computes, in one batch, the confidence of every lineage
	// group of one operator. args[i] holds the clause sets of argument i's
	// tuples in lineage order, against table, as the grouping handed them
	// over: the estimator reads them and may keep them, and must not
	// modify them. conf has one argument, σ̂ one per conf[Āᵢ] term. decide
	// reports that the estimates feed σ̂'s predicate (Estimates.Decide)
	// rather than conf's P column, which is what a sampling implementation
	// budgets by.
	Estimate(table *vars.Table, args [][]dnf.F, decide bool) (Estimates, error)
	// ConfKey is what fixes a conf batch's P values beside its lineage:
	// batches under equal keys over one lineage estimate equal P, so the
	// engine memo keeps them under it (confP). exact asks for the key of a
	// batch whose every value is exact, which depends on fewer options. It
	// must be comparable.
	ConfKey(exact bool) any
	// Replay counts a kept conf batch — kept is what its Estimates' Kept
	// returned — as estimating it again would.
	Replay(kept any)
}

// Estimates are one batch's confidences, addressed by (argument, position
// in the argument's lineage order).
type Estimates interface {
	// P returns the confidence of argument arg's i-th tuple.
	P(arg, i int) float64
	// Decide decides φ on one combination — combo[a] is the position of
	// argument a's tuple — and completes the combination's Lemma 6.4(2)
	// bound: mu and singular are the provenance part (selectBound), the
	// results add the decision's Σᵢ δᵢ(ε) and its own singularity. Negative
	// decisions carry a bound too, which is the implementation's to track.
	Decide(pred predapprox.Pred, combo []int, mu float64, singular bool) (keep bool, outMu float64, outSingular bool)
	// Round closes one round of a σ̂ batch, after Decide has seen every
	// combination: it reports whether another round is due and, when one
	// is, has refined the estimates the open decisions read, so the walker
	// decides every combination again (approxSelect).
	Round() (again bool, err error)
	// Kept returns what Replay needs to count this conf batch again and
	// whether its every value is exact (ConfKey), or ok false when its P
	// values may not be kept for a later walk.
	Kept() (kept any, exact, ok bool)
}

// exactEstimators is the Q (as opposed to Q∼) semantics of Section 6:
// dnf.Confidence per group, each argument's groups fanned out across the
// pool (group costs vary wildly, so the pool's work-stealing cursor
// load-balances), each confidence written to its group's own slot.
type exactEstimators struct{ pool *sched.Pool }

// ConfKey is nil: exact P depends on the lineage alone.
func (exactEstimators) ConfKey(bool) any { return nil }

func (exactEstimators) Replay(any) {}

func (x exactEstimators) Estimate(table *vars.Table, args [][]dnf.F, _ bool) (Estimates, error) {
	est := &exactEstimates{p: make([][]float64, len(args)), x: make([]float64, len(args))}
	for a, fs := range args {
		p := make([]float64, len(fs))
		_ = x.pool.ForEach(len(fs), func(i int) error {
			p[i] = dnf.Confidence(fs[i], table)
			return nil
		})
		est.p[a] = p
	}
	return est, nil
}

// exactEstimates decides on the exact values: no decision error, and no
// singularities (ε₀ only exists under approximation). x is Decide's
// scratch point.
type exactEstimates struct {
	p [][]float64
	x []float64
}

func (e *exactEstimates) P(arg, i int) float64 { return e.p[arg][i] }

func (e *exactEstimates) Decide(pred predapprox.Pred, combo []int, mu float64, singular bool) (bool, float64, bool) {
	for a, i := range combo {
		e.x[a] = e.p[a][i]
	}
	return pred.Eval(e.x), mu, singular
}

func (e *exactEstimates) Round() (bool, error) { return false, nil }

func (e *exactEstimates) Kept() (any, bool, bool) { return nil, true, true }

// PColName returns the confidence column name for σ̂ argument i: P1, P2, …
func PColName(i int) string { return "P" + strconv.Itoa(i+1) }

// estimate runs one estimation batch over the lineage of rels — one
// relation per argument — and returns each argument's distinct data tuples
// in lineage order beside the batch's estimates. The grouping's rows and
// clause sets are handed on as they come.
func (e *URelEvaluator) estimate(rels []*urel.Relation, decide bool) ([][]rel.Tuple, Estimates, error) {
	rows := make([][]rel.Tuple, len(rels))
	args := make([][]dnf.F, len(rels))
	for a, r := range rels {
		rows[a], args[a] = e.exec.Lineage(r)
	}
	est, err := e.est.Estimate(e.db.Vars, args, decide)
	return rows, est, err
}

// conf is the conf operator: in's distinct data tuples extended by the P
// column. The output is complete; each tuple inherits the bound of the
// input tuple it extends (the P value itself carries the estimator's
// guarantee, not a membership error).
func (e *URelEvaluator) conf(in URelResult, pcol string) (URelResult, error) {
	rows, est, err := e.confP(in)
	if err != nil {
		return URelResult{}, err
	}
	out := URelResult{Rel: urel.WithColumn(in.Rel.Schema(), pcol, rows, func(i int) rel.Value {
		return rel.Float(est.P(0, i))
	}), Complete: true}
	return out.Bounded(func(row rel.Tuple) (float64, bool) {
		return in.Bounds.BoundOf(row[:len(row)-1])
	}, in), nil
}

// approxSelect is σ̂ by its defining composition (Section 6):
//
//	σ_φ(P1,…,Pk)(ρ_{P→P1}(conf(π_{Ā₁}(in))) ⋈ … ⋈ ρ_{P→Pk}(conf(π_{Ā_k}(in))))
//
// Every argument is projected and grouped through the Exec; the lineage of
// all arguments is estimated in one batch; the argument tuples join
// naturally through Exec.Join (a hash join — counted, and charged to the
// memory budget), each carrying its position in place of its P value so a
// combination can be handed to Estimates.Decide; combinations are decided
// in join order, which is argument-0-major lineage order, once per round of
// the batch (Estimates.Round): only the decisions change between rounds,
// so the join is built once and the operators above see one result.
func (e *URelEvaluator) approxSelect(in URelResult, n *node, q ApproxSelect) (URelResult, error) {
	schema, k := n.schema, len(q.Args)
	projs := make([]*urel.Relation, k)
	prov := make([]*Bounds, k)
	for a, arg := range q.Args {
		targets := keepTargets(arg.Attrs)
		projs[a] = e.exec.Project(in.Rel, targets)
		prov[a] = ProjectBounds(in, targets)
	}
	rows, est, err := e.estimate(projs, true)
	if err != nil {
		return URelResult{}, err
	}
	var joined *urel.Relation
	for a := range q.Args {
		arg := urel.WithColumn(projs[a].Schema(), PColName(a), rows[a], func(i int) rel.Value {
			return rel.Int(int64(i))
		})
		if a == 0 {
			joined = arg
			continue
		}
		joined = e.exec.Join(joined, arg)
		if err := e.check(); err != nil {
			return URelResult{}, err
		}
	}

	// src maps an output column to its column of the join; the last k are
	// the position columns.
	src := make([]int, len(schema))
	for c, attr := range schema {
		src[c] = joined.Schema().Index(attr)
	}
	pos := src[len(src)-k:]
	combo := make([]int, k)
	for {
		out := URelResult{Rel: urel.NewRelation(schema), Complete: true, Bounds: newBounds(schema)}
		for _, ut := range joined.Tuples() {
			for a, j := range pos {
				combo[a] = int(ut.Row[j].AsInt())
			}
			mu, singular := selectBound(prov, rows, combo)
			keep, mu, singular := est.Decide(q.Pred, combo, mu, singular)
			if !keep {
				continue
			}
			row := make(rel.Tuple, len(src))
			for c, j := range src {
				row[c] = ut.Row[j]
			}
			for a, i := range combo {
				row[len(row)-k+a] = rel.Float(est.P(a, i))
			}
			out.Rel.AddOwned(nil, row)
			if mu > 0 || singular {
				out.Bounds.set(row, mu, singular)
			}
		}
		again, err := est.Round()
		if err == nil && again {
			err = e.check()
		}
		if err != nil || !again {
			return out, err
		}
	}
}
