package core

import (
	"iter"
	"math"

	"repro/internal/algebra"
	"repro/internal/dnf"
	"repro/internal/karpluby"
	"repro/internal/predapprox"
	"repro/internal/vars"
)

// Estimate is the sampling algebra.Estimators. Every lineage group becomes
// a confValue: exact, or bound to a Karp–Luby task keyed by its lineage
// content — so its PRNG streams, and hence its estimate, depend only on
// Options.Seed, never on the worker count or on other tuples, and groups
// sharing a clause set (in this batch, elsewhere in the plan, or in an
// earlier query against a shared engine cache) share one estimation. One
// runEstimates call spends the whole batch's budgets, so the scheduler
// keeps every worker busy across argument boundaries.
//
// A conf batch (Corollary 4.3) gives each task the paper's Chernoff budget
// on the flat estimator, the singleton shortcut always on. With
// Options.Strata set its tasks are stratified and adaptive instead
// (factoring pre-pass, Neyman waves, empirical-Bernstein stopping below the
// same budget).
//
// A σ̂ batch (Definition 6.2) follows the balanced refinement scheme of the
// end of Section 5: run.rounds rounds of |F| trials per task, stratified
// under Options.Strata.
func (run *evalRun) Estimate(table *vars.Table, args []iter.Seq[dnf.F], decide bool) (algebra.Estimates, error) {
	opts := run.engine.opts
	eps, delta := opts.confEps(), opts.confDelta()
	budget := func(clauses int) int64 { return karpluby.TrialsFor(eps, delta, clauses) }
	tgt := target{adaptive: opts.Strata > 0, eps: eps, delta: delta}
	if decide {
		budget = func(clauses int) int64 { return run.rounds * int64(clauses) }
		tgt = target{}
	}
	run.table = table
	run.batch = make(map[contentKey]*task)
	est := &estimates{run: run, cvs: make([][]*confValue, len(args))}
	before := *run.stats
	var tasks []*task
	for a, groups := range args {
		for f := range groups {
			cv, t, err := run.newTask(f, budget, opts.Strata)
			if err != nil {
				return nil, err
			}
			if t != nil {
				tasks = append(tasks, t)
			}
			est.cvs[a] = append(est.cvs[a], cv)
		}
	}
	factored := run.stats.ExactFactored - before.ExactFactored
	// A kept batch's later pass: every task starts over where resume leaves
	// it — where a cache round trip leaves a rebuilt one — and is raised to
	// its budget at the pass's rounds, counting into Stats as a rebuild would.
	est.refine = func() error {
		run.stats.ExactFactored += factored
		for _, t := range tasks {
			run.resume(t, budget(t.est.ClauseCount()))
		}
		return run.runEstimates(tasks, tgt)
	}
	if err := run.runEstimates(tasks, tgt); err != nil {
		return nil, err
	}
	if !decide && run.stats.EstimatorTrials == before.EstimatorTrials {
		var d [5]int64
		for i, f := range run.stats.replayed() {
			d[i] = *f - *before.replayed()[i]
		}
		est.kept = d
	}
	return est, nil
}

// estimates is one batch's confValues, by argument and lineage position.
// kept is a conf batch's replayed counts when it sampled nothing.
type estimates struct {
	run    *evalRun
	cvs    [][]*confValue
	refine func() error
	kept   any
}

func (e *estimates) P(arg, i int) float64 { return e.cvs[arg][i].estimate() }

func (e *estimates) Refine() error { return e.refine() }

func (e *estimates) Kept() (any, bool) { return e.kept, e.kept != nil }

// confKey is what fixes a conf batch's P values beside its lineage: the
// seed, the Chernoff budget's ε and δ, and the strata bound. Workers, the
// Distributor and MaxTrials do not move them.
type confKey struct {
	seed       int64
	eps, delta float64
	strata     int
}

func (run *evalRun) ConfKey() any {
	o := run.engine.opts
	return confKey{o.Seed, o.confEps(), o.confDelta(), o.Strata}
}

// replayed are the Stats fields a conf batch that sampled nothing — every
// task a full cache replay — adds: what a walk answering it from the engine
// memo counts again (Replay).
func (st *Stats) replayed() [5]*int64 {
	return [5]*int64{&st.ReusedTrials, &st.CacheHits, &st.Strata, &st.EarlyStops, &st.ExactFactored}
}

// Replay counts a kept conf batch again, and so does each later pass's
// refine, as a cache round trip would.
func (run *evalRun) Replay(kept any) func() error {
	refine := func() error {
		for i, f := range run.stats.replayed() {
			*f += kept.([5]int64)[i]
		}
		return nil
	}
	refine()
	return refine
}

// confValue is one approximable conf[Āᵢ] term of a σ̂ group: either an
// exact probability (empty or singleton lineage), or a task's estimate of
// the sampled clause set plus the exactly-computed part of the lineage
// (combined as p = exactPart + (1−exactPart)·p_R, see dnf.Factor; 0 for a
// flat task, which factors nothing).
type confValue struct {
	exact     bool
	value     float64
	t         *task   // nil when exact
	exactPart float64 // exact factored part
}

func (cv *confValue) estimate() float64 {
	if cv.exact {
		return cv.value
	}
	est := cv.t.est
	if cv.t.flat() {
		if est.Trials() == 0 {
			return est.Estimate()
		}
		// The flat estimator's p̂ = X·M/m, in this operation order and
		// unclamped (M may exceed 1).
		return float64(est.Hits()) * est.M() / float64(est.Trials())
	}
	r := math.Min(1, math.Max(0, est.Estimate()))
	return cv.exactPart + (1-cv.exactPart)*r
}

// delta returns the per-value error bound δᵢ(ε) after the run's rounds:
// the paper's Chernoff bound for a flat task, the empirical-Bernstein bound
// for a stratified one — where the residue's relative-error bound carries
// to the combined value unchanged (factor.go), so no adjustment is needed.
func (cv *confValue) delta(eps float64) float64 {
	switch {
	case cv.exact:
		return 0
	case cv.t.flat():
		return karpluby.DeltaBound(eps, cv.t.est.Trials(), cv.t.est.ClauseCount())
	}
	return cv.t.est.Delta(eps)
}

// Decide decides the σ̂ predicate for one combination on the estimates,
// with ε = max(ε₀, ε_ψ(p̂)) (Definition 6.2), and bounds the decision's
// error per Lemma 6.4(2): Σᵢ δᵢ(ε) plus the provenance error mu of the
// combination's argument tuples. Every decision's bound enters the
// doubling loop's stopping rule, as in Figure 3: a margin below ε₀ only
// flags the decision singular, it does not exempt it from refinement.
func (e *estimates) Decide(pred predapprox.Pred, combo []int, mu float64, singular bool) (bool, float64, bool) {
	run := e.run
	run.stats.Decisions++
	est := make([]float64, len(combo))
	for a, i := range combo {
		est[a] = e.cvs[a][i].estimate()
	}
	margin := pred.Margin(est)
	eps := math.Max(run.engine.opts.Eps0, margin)
	singular = singular || margin < run.engine.opts.Eps0
	decisionErr := 0.0
	for a, i := range combo {
		decisionErr += e.cvs[a][i].delta(eps)
	}
	bound := decisionErr + mu
	if bound > run.worstDecision {
		run.worstDecision = bound
	}
	keep := pred.Eval(est)
	if !keep && singular {
		run.stats.SingularDrops++
	}
	return keep, bound, singular
}
