package core

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/dnf"
	"repro/internal/karpluby"
	"repro/internal/predapprox"
	"repro/internal/vars"
)

// Estimate is the sampling algebra.Estimators. Every lineage group becomes
// a confValue: exact, or bound to a Karp–Luby task keyed by its lineage
// content — so its estimate depends only on Options.Seed, never on the
// worker count or on other tuples, and groups sharing a clause set share
// one estimation. One runEstimates call spends the whole batch's budgets,
// so the scheduler keeps every worker busy across argument boundaries.
//
// A conf batch (Corollary 4.3) gives each task the paper's Chernoff budget
// on the flat estimator, exact lineage never sampled (newTask). With
// Options.Strata set its tasks are stratified and adaptive instead
// (factoring pre-pass, Neyman waves, empirical-Bernstein stopping below the
// same budget).
//
// A σ̂ batch (Definition 6.2) follows the balanced refinement scheme of the
// end of Section 5: l rounds of |F| trials per task, stratified under
// Options.Strata, starting at the walk's l (Options.InitialRounds on the
// first walk) and doubled by Round.
func (run *evalRun) Estimate(table *vars.Table, args [][]dnf.F, decide bool) (algebra.Estimates, error) {
	opts := run.engine.opts
	eps, delta := opts.confEps(), opts.confDelta()
	budget := func(clauses int) int64 { return karpluby.TrialsFor(eps, delta, clauses) }
	tgt := target{adaptive: opts.Strata > 0, eps: eps, delta: delta}
	est := &estimates{run: run, cvs: make([][]*confValue, len(args)), rounds: run.rounds}
	if decide {
		budget = func(clauses int) int64 { return roundBudget(est.rounds, clauses) }
		tgt = target{}
	}
	run.table = table
	run.batch = make(map[contentKey]*task)
	before := *run.stats
	for a, fs := range args {
		est.cvs[a] = make([]*confValue, len(fs))
		for i, f := range fs {
			cv, t, err := run.newTask(f, budget, opts.Strata)
			if err != nil {
				return nil, err
			}
			if t != nil {
				est.tasks = append(est.tasks, t)
			}
			est.cvs[a][i] = cv
		}
	}
	if err := run.runEstimates(est.tasks, tgt); err != nil {
		return nil, err
	}
	if decide {
		return est, nil
	}
	run.publish(est.tasks)
	if run.stats.EstimatorTrials == before.EstimatorTrials {
		var d [5]int64
		for i, f := range run.stats.replayed() {
			d[i] = *f - *before.replayed()[i]
		}
		est.kept = d
	}
	return est, nil
}

// roundBudget is l rounds of |F| trials, saturated at math.MaxInt64.
func roundBudget(l int64, clauses int) int64 {
	if l > math.MaxInt64/int64(clauses) {
		return math.MaxInt64
	}
	return l * int64(clauses)
}

// estimates is one batch's confValues, by argument and lineage position,
// and its tasks. kept is a conf batch's replayed counts when it sampled
// nothing. A σ̂ batch also keeps its round l and what the current round's
// decisions counted: decisions, singular drops and the worst bound.
type estimates struct {
	run    *evalRun
	cvs    [][]*confValue
	tasks  []*task
	kept   any
	rounds int64

	decisions, drops int
	worst            float64
}

func (e *estimates) P(arg, i int) float64 { return e.cvs[arg][i].estimate() }

func (e *estimates) Kept() (any, bool, bool) { return e.kept, len(e.tasks) == 0, e.kept != nil }

// Round is Figure 3's doubling loop, run inside one σ̂ batch instead of
// around the plan: once every combination is decided at l rounds, the
// tasks feeding a decision still above its share of δ go on to 2l rounds,
// in memory, and the walker decides again; a batch with no such task, or
// at the l₀ cap, is final.
//
// The share is s = δ/d for the plan's d σ̂ operators (theorem67Cap counts
// them), halved on each root re-walk. By Lemma 6.4(2) a decision's bound is
// Σᵢ δᵢ(ε) — the chance that one of its estimates misses its relative ε,
// the only way a decision with margin ≥ ε₀ goes wrong (Definition 6.2) —
// plus mu, which selectBound hands the σ̂: the bounds of the decisions below
// it in its argument tuples' provenance. Only the first term depends on
// this batch's l, so a decision stays open while Σᵢ δᵢ(ε) > s. The union
// bound over the decisions in a result tuple's provenance (which the
// walker's bounds sum) then gives µ ≤ d·s = δ to every tuple whose
// provenance holds at most one decision per σ̂ — at any nesting, since mu
// is at most the lower σ̂s' shares. A projection (Example 6.5's fan-in) or
// σ̂ argument that merges tuples sums several decisions of one σ̂ instead,
// so EvalApproxContext checks the root's worst bound against δ and, when it
// exceeds it, re-walks with halved shares and every σ̂ starting at twice
// the largest l of the walk before — Figure 3's outer doubling, so there
// are at most log₂ l₀ re-walks. Nothing beyond the union bound is
// used: each δᵢ(ε) is its estimate's own Chernoff or empirical-Bernstein
// bound at the trials it holds.
//
// A decision with margin below ε₀ is flagged singular; its δᵢ(ε₀) still
// shrinks with l, so it stays open until it clears s or its σ̂ reaches l₀.
// A task shared by content doubles while any decision reading it is open.
// Cancellation and the trial limit stop a round between chunks, and the
// walker checks the memory limit before deciding again.
func (e *estimates) Round() (bool, error) {
	run := e.run
	var open []*task
	for _, t := range e.tasks {
		if t.open {
			open = append(open, t)
			t.open = false
		}
	}
	run.progress(e.rounds, e.worst, e.decisions, false)
	if len(open) == 0 || e.rounds >= run.maxRounds {
		st := run.stats
		st.Decisions += e.decisions
		st.SingularDrops += e.drops
		st.FinalRounds = max(st.FinalRounds, e.rounds)
		run.worstDecision = max(run.worstDecision, e.worst)
		run.slack = run.slack || len(e.tasks) > 0 && e.rounds < run.maxRounds
		run.publish(e.tasks)
		return false, nil
	}
	e.rounds = min(2*e.rounds, run.maxRounds)
	e.decisions, e.drops, e.worst = 0, 0, 0
	for _, t := range open {
		t.budget = roundBudget(e.rounds, t.est.ClauseCount())
	}
	return true, run.runEstimates(open, target{})
}

// confKey is what fixes a conf batch's P values beside its lineage: the
// seed, the Chernoff budget's ε and δ, and the strata bound. Workers, the
// Distributor and MaxTrials do not move them. A batch with no task has
// only exact values (newTask), which depend on the strata bound alone
// (the factoring pre-pass): it is kept once under exactConfKey, not once
// per seed.
type confKey struct {
	seed       int64
	eps, delta float64
	strata     int
}

type exactConfKey int

func (run *evalRun) ConfKey(exact bool) any {
	o := run.engine.opts
	if exact {
		return exactConfKey(o.Strata)
	}
	return confKey{o.Seed, o.confEps(), o.confDelta(), o.Strata}
}

// replayed are the Stats fields a conf batch that sampled nothing — every
// task a full cache replay — adds: what a walk answering it from the engine
// memo counts again (Replay).
func (st *Stats) replayed() [5]*int64 {
	return [5]*int64{&st.ReusedTrials, &st.CacheHits, &st.Strata, &st.EarlyStops, &st.ExactFactored}
}

// progress reports to Options.Progress, when set.
func (run *evalRun) progress(rounds int64, worst float64, decisions int, done bool) {
	if fn := run.engine.opts.Progress; fn != nil {
		st := run.stats
		fn(Progress{Restart: st.Restarts, Rounds: rounds, MaxRounds: run.maxRounds, WorstBound: worst,
			SampledTrials: st.EstimatorTrials, ReusedTrials: st.ReusedTrials, Decisions: decisions, Done: done})
	}
}

// Replay counts a kept conf batch again, as a cache round trip would.
func (run *evalRun) Replay(kept any) {
	for i, f := range run.stats.replayed() {
		*f += kept.([5]int64)[i]
	}
}

// confValue is one approximable conf[Āᵢ] term of a σ̂ group: either an
// exact probability (newTask's exact cases), or a task's estimate of
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
// combination's argument tuples. Every decision enters Round's stopping
// rule, as in Figure 3: a margin below ε₀ only flags the decision singular,
// it does not exempt it from refinement.
func (e *estimates) Decide(pred predapprox.Pred, combo []int, mu float64, singular bool) (bool, float64, bool) {
	run := e.run
	e.decisions++
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
	if decisionErr > run.share {
		for a, i := range combo {
			if t := e.cvs[a][i].t; t != nil {
				t.open = true
			}
		}
	}
	bound := decisionErr + mu
	e.worst = max(e.worst, bound)
	keep := pred.Eval(est)
	if !keep && singular {
		e.drops++
	}
	return keep, bound, singular
}
