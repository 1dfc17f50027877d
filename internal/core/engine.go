// Package core is the paper's primary contribution assembled into a usable
// engine: approximate evaluation of UA[conf, repair-key, σ̂] queries on
// U-relational databases with per-tuple error bounds.
//
// The plan itself is walked by algebra.URelEvaluator — positive relational
// algebra and repair-key exactly on the U-relational representation (they
// are cheap — Proposition 3.3), with Lemma 6.4's bounds propagated next to
// the operators. This package supplies the walker's sampling Estimators: it
// approximates confidence with the Karp–Luby FPRAS (Section 4) and decides
// σ̂ predicates with the margin machinery of Section 5, bounding each
// decision's membership error per Lemma 6.4(2). EvalApprox implements
// Theorem 6.7's strategy: evaluate with a round budget l and double l until
// every output tuple's and decision's bound is below the target δ — walking
// the σ̂-free prefix once and carrying each σ̂'s tasks from pass to pass.
package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
	"repro/internal/vars"
)

// Options configures approximate evaluation.
type Options struct {
	// Eps0 is ε₀, the smallest relative half-width the predicate
	// approximation goes for; points closer than ε₀ to a decision
	// boundary are singularities (Definition 5.6). Required > 0.
	Eps0 float64
	// Delta is the target per-tuple error probability δ.
	Delta float64
	// InitialRounds is the starting l of the doubling loop (default 1).
	InitialRounds int64
	// MaxRounds caps l; 0 means the Theorem 6.7 bound l₀ derived from the
	// query and database (so termination is guaranteed in polynomial
	// time).
	MaxRounds int64
	// ConfEps/ConfDelta parameterize standalone conf_{ε,δ} operators
	// (Corollary 4.3). Zero values default to Eps0 and Delta.
	ConfEps   float64
	ConfDelta float64
	// Seed seeds the engine's deterministic random source. Every
	// estimation task derives its own PRNG streams from Seed plus a
	// stable task key, so equal seeds give bit-identical results for any
	// Workers value.
	Seed int64
	// Workers is the number of goroutines the engine fans Karp–Luby
	// estimation out across; 0 (the default) selects GOMAXPROCS. Results
	// are independent of the value — it only changes wall-clock time.
	Workers int
	// MaxTrials caps the number of Karp–Luby trials one evaluation may
	// sample, cumulatively across every pass of the doubling loop. The
	// check is cooperative (pool workers charge each chunk before
	// sampling it), so an evaluation overshoots by at most the in-flight
	// chunks. 0 disables the limit. Exceeding it aborts the evaluation
	// with a *LimitError; trials replayed from estimator snapshots are
	// free — they were paid for when first sampled.
	MaxTrials int64
	// MaxMemory caps the evaluation's estimated bytes materialized by the
	// exact-algebra operators (the same running estimate Stats.Ops
	// reports). A relation is charged once, when it is materialized: a
	// restart charges only what it rebuilds above the first σ̂, never the
	// σ̂-free prefix or a σ̂'s lineage it replays; a sub-plan the engine's
	// memo replays (SetMemo) is charged as if materialized. Enforcement is
	// cooperative: the partitioned blow-up operators stop producing
	// mid-range once the budget trips, and the evaluation aborts with a
	// *LimitError at the next operator boundary. 0 disables the limit.
	MaxMemory int64
	// SpillDir, when non-empty alongside MaxMemory, switches the memory
	// limit from a hard abort to out-of-core execution: intermediate
	// relations whose footprint pushes the running estimate over MaxMemory
	// are shed to temp files under SpillDir (a fresh pdb-spill-*
	// subdirectory, removed when the evaluation finishes) and transparently
	// reloaded when a later operator needs them. MaxMemory then acts as a
	// high-water mark for the live set — any single operator's working set
	// still peaks in memory — and the evaluation completes instead of
	// returning a memory *LimitError. Results are bit-identical to an
	// unspilled run. Ignored when MaxMemory is 0.
	SpillDir string
	// Strata enables clause-stratified Karp–Luby estimation with at most
	// Strata weight bands per clause set (see karpluby.PlanStrata): conf
	// operators switch to the adaptive loop — Neyman allocation of
	// sampling waves across strata, empirical-Bernstein stopping, and a
	// factoring pre-pass that computes independent easy subformulas
	// exactly — and σ̂ operators Neyman-allocate each pass's round budget
	// across strata. 0 (the default) keeps the flat estimator. Results
	// remain bit-identical for any Workers value under one seed;
	// stratified estimates differ numerically from flat ones (different
	// trial streams) while carrying the same (ε,δ) target.
	Strata int
	// Progress, when non-nil, is called synchronously after every pass of
	// the doubling loop with a snapshot of the evaluation's progress. The
	// hook must be fast and must not call back into the engine.
	Progress func(Progress)
}

// Progress is one observation of EvalApprox's doubling loop, delivered to
// Options.Progress after each pass (including the final one, flagged Done).
type Progress struct {
	// Restart is the number of restarts before this pass (0 = first pass).
	Restart int
	// Rounds is the round budget l the pass ran with.
	Rounds int64
	// MaxRounds is the cap on l (the Theorem 6.7 bound when Options left
	// it 0).
	MaxRounds int64
	// WorstBound is the largest per-tuple/per-decision error bound after
	// the pass — the value the loop compares against δ.
	WorstBound float64
	// SampledTrials and ReusedTrials are cumulative Karp–Luby trial counts
	// across all passes so far (see Stats).
	SampledTrials int64
	ReusedTrials  int64
	// Decisions is the number of σ̂ decisions taken in this pass.
	Decisions int
	// Done reports whether the loop terminates with this pass.
	Done bool
}

func (o Options) confEps() float64 {
	if o.ConfEps > 0 {
		return o.ConfEps
	}
	return o.Eps0
}

func (o Options) confDelta() float64 {
	if o.ConfDelta > 0 {
		return o.ConfDelta
	}
	return o.Delta
}

// Stats reports work done by an approximate evaluation. One value lives
// for the whole doubling loop and is filled in where the work happens.
type Stats struct {
	// FinalRounds is the l at which the doubling loop stopped.
	FinalRounds int64
	// Restarts is the number of times evaluation was restarted with a
	// doubled l.
	Restarts int
	// EstimatorTrials is the total number of Karp–Luby trials actually
	// sampled across all restarts, excluding trials replayed from estimator
	// snapshots. EstimatorTrials + ReusedTrials is the paper-literal cost of
	// the doubling loop, every pass sampling its budget from scratch.
	EstimatorTrials int64
	// ReusedTrials is the total number of trials whose counts were
	// carried over from estimator snapshots instead of being re-sampled —
	// snapshots of a previous restart of this evaluation, or, on an
	// engine with a shared cache, of any earlier evaluation that
	// estimated the same lineage content. Zero when nothing was reusable.
	ReusedTrials int64
	// CacheHits is the number of estimation tasks that resumed from a
	// cached snapshot (each hit contributes its snapshot's trials to
	// ReusedTrials). With a shared engine cache this counts cross-query
	// reuse as well as cross-restart reuse.
	CacheHits int64
	// Decisions is the number of σ̂ predicate decisions taken in the
	// final pass.
	Decisions int
	// SingularDrops counts σ̂ decisions of the final pass that came out
	// negative while flagged as potential ε₀-singularities: the dropped
	// tuple's absence is not covered by the δ guarantee.
	SingularDrops int
	// The stratified tasks of the final pass (all 0 on the unstratified
	// path): their clause strata in total; how many of them stopped before
	// spending their trial cap — the empirical-Bernstein bound converged
	// below δ ahead of the Chernoff budget; and the independent lineage
	// subformulas their factoring pre-pass computed exactly instead of
	// sampling.
	Strata, EarlyStops, ExactFactored int64
	// Ops aggregates per-operator work (tuple counts, estimated bytes
	// materialized) over the evaluation: the σ̂-free prefix and each σ̂'s
	// lineage once, what a restart rebuilds above the first σ̂ once a pass.
	Ops urel.StatsMap
	// SpilledBytes and SpillFiles report out-of-core activity
	// (Options.SpillDir): total bytes written to spill files and the number
	// of spill files created, across every pass. Zero without spilling.
	SpilledBytes int64
	SpillFiles   int
}

// Result is the outcome of an (approximate) query evaluation.
type Result struct {
	// Rel is the result as a U-relation (complete results have empty D
	// columns).
	Rel *urel.Relation
	// Complete reports c(result).
	Complete bool
	// Bounds are the Lemma 6.4 annotations of the result's data tuples:
	// the membership-error bound µ (unclamped — read it through
	// TupleError) and whether the tuple's σ̂ decisions hit the ε₀ floor,
	// so that the point may be an ε₀-singularity Theorem 6.7's guarantee
	// does not cover. Nil when no tuple is annotated.
	Bounds *algebra.Bounds
	// Stats reports evaluation effort.
	Stats Stats
}

// TupleError returns the error bound of tuple t, clamped to [0, 1].
func (r *Result) TupleError(t rel.Tuple) float64 {
	mu, _ := r.Bounds.BoundOf(t)
	return math.Min(1, mu)
}

// IsSingular reports whether t depends on a (potential) singularity.
func (r *Result) IsSingular(t rel.Tuple) bool {
	_, singular := r.Bounds.BoundOf(t)
	return singular
}

// MaxNonSingularError returns the worst clamped bound over non-singular
// tuples.
func (r *Result) MaxNonSingularError() float64 {
	worst, _ := r.Bounds.Worst(true)
	return math.Min(1, worst)
}

// Engine evaluates UA queries against a U-relational database.
type Engine struct {
	db   *urel.Database
	opts Options
	pool *sched.Pool
	// shared, when non-nil, is an estimator cache that outlives this
	// engine's evaluations (see SetCache).
	shared *Cache
	memo   *algebra.SubplanMemo // see SetMemo
	// dist, when non-nil, scatters estimation batches to remote shards
	// (see SetDistributor).
	dist Distributor
}

// NewEngine builds an engine over db. The database is cloned per
// evaluation, never mutated.
func NewEngine(db *urel.Database, opts Options) *Engine {
	return &Engine{db: db, opts: opts, pool: sched.New(opts.Workers)}
}

// SetCache attaches a long-lived estimator cache: EvalApprox resumes
// Karp–Luby state from it and publishes new state to it, so estimation
// work survives across Eval calls — and across engines sharing the cache —
// for any tasks with equal lineage content under one seed. The cache may
// be shared by concurrent evaluations. A nil cache (the default) restores
// the per-call cache that lives only for one doubling loop.
func (e *Engine) SetCache(c *Cache) { e.shared = c }

// SetMemo attaches a long-lived memo of the database's estimator-free
// sub-plans: evaluations that do not spill replay them bit-identically, Ops
// and MaxMemory included. A nil memo (the default) walks every sub-plan.
func (e *Engine) SetMemo(m *algebra.SubplanMemo) { e.memo = m }

// DB returns the engine's database.
func (e *Engine) DB() *urel.Database { return e.db }

// EvalExact evaluates the query with exact confidence computation
// (delegating to the algebra package's U-relational evaluator). The
// evaluator runs its partitioned operators — and independent plan
// branches — across the engine's worker pool (Options.Workers); results
// are bit-identical for any worker count.
func (e *Engine) EvalExact(q algebra.Query) (algebra.URelResult, error) {
	return e.EvalExactContext(context.Background(), q)
}

// EvalExactContext is EvalExact with cooperative cancellation between plan
// operators. Options.MaxMemory bounds the evaluation's materialized bytes
// exactly like the approximate path (a trip aborts with a *LimitError —
// unless Options.SpillDir enables out-of-core execution, in which case
// over-budget intermediates spill to disk and the evaluation completes);
// Options.MaxTrials does not apply — exact evaluation samples nothing.
func (e *Engine) EvalExactContext(ctx context.Context, q algebra.Query) (algebra.URelResult, error) {
	w, done, err := e.newWalker(urel.NewMemBudget(e.opts.MaxMemory))
	if err != nil {
		return algebra.URelResult{}, err
	}
	defer done()
	res, err := w.EvalContext(ctx, q)
	return res, limitErr(err)
}

// newWalker builds an evaluation's plan walker over a fresh clone of the
// database, on the engine's worker pool, under the memory budget mem (nil:
// none) and — when Options.SpillDir is set alongside a MaxMemory budget — a
// fresh spill directory, which done removes; and with the engine's sub-plan
// memo. Exact and approximate evaluation differ only in the walker's
// Estimators.
func (e *Engine) newWalker(mem *urel.MemBudget) (w *algebra.URelEvaluator, done func(), err error) {
	w = algebra.NewParallelURelEvaluator(e.db, e.pool).WithBudget(mem).WithMemo(e.memo)
	if e.opts.SpillDir == "" || e.opts.MaxMemory <= 0 {
		return w, func() {}, nil
	}
	spill, err := urel.NewSpill(e.opts.SpillDir)
	if err != nil {
		return nil, nil, err
	}
	return w.WithSpill(spill), func() { spill.Close() }, nil
}

// limitErr maps the walker's tripped-budget error to the engine's typed
// *LimitError; every other error passes through.
func limitErr(err error) error {
	var me *urel.MemLimitError
	if errors.As(err, &me) {
		return &LimitError{Resource: "memory", Limit: me.Limit, Used: me.Used}
	}
	return err
}

// EvalApprox evaluates the query approximately per Theorem 6.7: it runs
// the plan with round budget l, doubling l until every output tuple's and
// σ̂ decision's error bound is ≤ δ (or the round cap is reached).
func (e *Engine) EvalApprox(q algebra.Query) (*Result, error) {
	return e.EvalApproxContext(context.Background(), q)
}

// EvalApproxContext is EvalApprox with cooperative cancellation: the
// context is checked between operators of each pass and between estimation
// chunks inside the worker pool, so cancelling ctx aborts the evaluation
// within one chunk boundary and returns ctx.Err(). Cancellation never
// corrupts the cross-restart estimator cache — a task's snapshot is only
// published once every chunk of its budget has merged — so the engine (and
// its resume machinery) remains fully usable after an aborted call.
func (e *Engine) EvalApproxContext(ctx context.Context, q algebra.Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	l := e.opts.InitialRounds
	if l <= 0 {
		l = 1
	}
	maxL := e.opts.MaxRounds
	if maxL <= 0 {
		maxL = e.theorem67Cap(q)
	}
	// The estimator cache carries every task's counts from one pass to the
	// next (resume), and between operators sharing lineage; a shared cache
	// (SetCache) also across Eval calls and queries — task keys are
	// lineage-content fingerprints, meaningful wherever the same clause set
	// is estimated under the same seed.
	cache := e.shared
	if cache == nil {
		cache = NewCache(0)
	}
	// One walker and one evalRun — one memory budget and trials count, one
	// spill directory — serve every pass. The walker evaluates the plan's
	// σ̂-free sub-plans (and the batch of each σ̂ over one) on the first pass
	// and replays them after it, refining their kept tasks at the pass's
	// round budget: a restart redoes only what l changes, and Ops count
	// that work once.
	out := &Result{}
	st := &out.Stats
	run := &evalRun{engine: e, ctx: ctx, cache: cache, stats: st}
	w, done, err := e.newWalker(urel.NewMemBudget(e.opts.MaxMemory))
	if err != nil {
		return nil, err
	}
	defer done()
	w.WithEstimators(run, false)
	pass := func(ctx context.Context) (algebra.URelResult, error) { return w.EvalContext(ctx, q) }
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Every batch re-counts the per-pass fields, so they end up the final
		// pass's. The walker brings a shed result home: callers read it once
		// the spill directory is gone.
		st.FinalRounds, run.rounds, run.worstDecision = l, l, 0
		st.Decisions, st.SingularDrops, st.Strata, st.EarlyStops, st.ExactFactored = 0, 0, 0, 0, 0
		res, err := pass(ctx)
		if err != nil {
			return nil, limitErr(err)
		}
		st.Ops, st.SpilledBytes, st.SpillFiles = res.Ops, res.SpilledBytes, res.SpillFiles
		// Termination criterion of Theorem 6.7 with Figure 3's stopping
		// rule: every decision (positive or negative) and every result
		// tuple's accumulated bound must be ≤ δ. A singular-looking one
		// counts too — its δᵢ(ε₀) still shrinks with l — so only a true
		// singularity runs the loop to the l₀ cap.
		worst, _ := res.Bounds.Worst(false)
		worst = max(worst, run.worstDecision)
		done := worst <= e.opts.Delta || l >= maxL
		if e.opts.Progress != nil {
			e.opts.Progress(Progress{
				Restart:       st.Restarts,
				Rounds:        l,
				MaxRounds:     maxL,
				WorstBound:    worst,
				SampledTrials: st.EstimatorTrials,
				ReusedTrials:  st.ReusedTrials,
				Decisions:     st.Decisions,
				Done:          done,
			})
		}
		if done {
			out.Rel, out.Complete, out.Bounds = res.Rel, res.Complete, res.Bounds
			return out, nil
		}
		l = min(2*l, maxL)
		st.Restarts++
		pass = w.Rerun
	}
}

// theorem67Cap computes the l₀ of Theorem 6.7's proof from the query's
// σ̂ structure and the database size: l₀ ≥ 3·log(2·k·d·n^{k·d}/δ)/ε₀².
func (e *Engine) theorem67Cap(q algebra.Query) int64 {
	k, d := 1, 0
	algebra.Walk(q, func(n algebra.Query) {
		if as, ok := n.(algebra.ApproxSelect); ok {
			d++
			if len(as.Args) > k {
				k = len(as.Args)
			}
		}
	})
	if d == 0 {
		return 1
	}
	n := 1
	for _, r := range e.db.Rels {
		n += r.Len() * len(r.Schema())
	}
	cap66 := provenance.RoundsForProposition66(k, d, n, e.opts.Eps0, e.opts.Delta)
	if cap66 < 1 {
		return 1
	}
	return cap66
}

// evalRun is the sampling state of one approximate evaluation, at the
// current pass's rounds. As the walker's algebra.Estimators it is called
// (Estimate, approx.go; Refine) in plan order — never from concurrent
// branches: the batch maps and counters below are unsynchronized and σ̂
// decisions are counted in plan order.
type evalRun struct {
	engine *Engine
	// ctx is checked between estimation chunks (sched.Pool.ForEachCtx),
	// bounding cancellation latency inside one operator.
	ctx context.Context
	// table is the walker's variable table, which the first pass's
	// repair-keys grow: the current batch's lineage is estimated against it.
	table  *vars.Table
	rounds int64
	// cache resumes estimation tasks from snapshots stored under the same
	// lineage-content keys — by a previous restart of this EvalApprox, or by
	// any earlier evaluation when the engine carries a shared cache.
	cache *Cache
	// sampled counts the trials charged against Options.MaxTrials
	// (chargeTrials, limits.go).
	sampled atomic.Int64
	// fper fingerprints lineage content against the walker's variable
	// table (lazily built — plan construction is sequential).
	fper *fingerprinter
	// batch dedups content-equal estimation tasks within one operator's
	// batch; see newTask.
	batch map[contentKey]*task
	// stats is the evaluation's Stats: the pass counts its trials, cache
	// hits, decisions and stratified-task figures straight into it.
	stats *Stats
	// worstDecision is the largest per-decision error bound of the pass,
	// including negative decisions (whose tuples do not appear in the
	// result and so carry no entry in the error map). The doubling loop
	// must not terminate while any decision — positive or negative — is
	// still unreliable.
	worstDecision float64
}
