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
// Theorem 6.7's strategy with Figure 3's loop inside each σ̂: a σ̂ doubles
// the round budget l of the tasks behind its open decisions until each is
// within its share of δ, so the plan is walked once.
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
	// InitialRounds is the l every σ̂ starts doubling from (default 1).
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
	// estimation, and the exact confidences of conf, σ̂ and cert (one task
	// per lineage group), out across; 0 (the default) selects GOMAXPROCS.
	// The exact operators and the plan walk run sequentially whatever the
	// value. Results are independent of the value — it only changes
	// wall-clock time.
	Workers int
	// MaxTrials caps the number of Karp–Luby trials one evaluation may
	// sample, over every σ̂ round and re-walk. The check is cooperative
	// (pool workers charge each chunk before sampling it), so an
	// evaluation overshoots by at most the in-flight chunks. 0 disables
	// the limit. Exceeding it aborts the evaluation with a *LimitError;
	// trials resumed from estimator snapshots are free.
	MaxTrials int64
	// MaxMemory caps the estimated bytes one walk of the plan materializes
	// by the exact-algebra operators (the same running estimate Stats.Ops
	// reports): a relation is charged once, when it is materialized — a
	// σ̂'s rounds materialize nothing, and a re-walk starts a fresh budget —
	// and a sub-plan the engine's memo replays (SetMemo) as if
	// materialized. Enforcement is cooperative: the blow-up operators
	// (join, product) stop producing mid-operator once the budget trips,
	// and the evaluation aborts with a *LimitError at the next operator
	// boundary.
	// 0 disables the limit.
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
	// exactly — and σ̂ operators Neyman-allocate each round's budget across
	// strata. 0 (the default) keeps the flat estimator. Results
	// remain bit-identical for any Workers value under one seed;
	// stratified estimates differ numerically from flat ones (different
	// trial streams) while carrying the same (ε,δ) target.
	Strata int
	// Progress, when non-nil, is called synchronously after every σ̂
	// round and once at the end. The hook must be fast and must not call
	// back into the engine.
	Progress func(Progress)
}

// Progress is one observation of EvalApprox, delivered to Options.Progress
// after each σ̂ round and once more at the end, flagged Done.
type Progress struct {
	// Restart is the number of root re-walks so far.
	Restart int
	// Rounds is the round's l; at the end, Stats.FinalRounds.
	Rounds int64
	// MaxRounds is the cap on l (the Theorem 6.7 bound when Options left
	// it 0).
	MaxRounds int64
	// WorstBound is the round's largest decision bound, singular ones
	// included; at the end, the root's worst bound, which EvalApprox
	// compares against δ.
	WorstBound float64
	// SampledTrials and ReusedTrials are cumulative Karp–Luby trial counts
	// so far (see Stats).
	SampledTrials int64
	ReusedTrials  int64
	// Decisions is the round's σ̂ decisions; at the end, Stats.Decisions.
	Decisions int
	// Done flags the end of the evaluation.
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

// Stats reports work done by an approximate evaluation, filled in where
// the work happens. Trials, cache hits, re-walks and spilling count over
// the whole evaluation; the other figures are its last walk's.
type Stats struct {
	// FinalRounds is the largest l any σ̂ reached (InitialRounds without
	// one).
	FinalRounds int64
	// Restarts is the number of root re-walks: plain walks of the plan
	// with halved shares of δ and a doubled starting l, run while the
	// result's worst bound exceeds δ (see EvalApproxContext) — at most
	// log₂ of the round cap.
	Restarts int
	// EstimatorTrials is the number of Karp–Luby trials actually sampled,
	// excluding trials resumed from estimator snapshots.
	EstimatorTrials int64
	// ReusedTrials is the number of trials whose counts were resumed from
	// estimator snapshots instead of being sampled — of an earlier batch or
	// walk of this evaluation, or, on an engine with a shared cache, of any
	// earlier evaluation that estimated the same lineage content.
	ReusedTrials int64
	// CacheHits is the number of estimation tasks that resumed from a
	// cached snapshot (each hit contributes its snapshot's trials to
	// ReusedTrials).
	CacheHits int64
	// Decisions is the number of σ̂ predicate decisions in each σ̂'s
	// final round.
	Decisions int
	// SingularDrops counts those decisions that came out negative while
	// flagged as potential ε₀-singularities: the dropped tuple's absence
	// is not covered by the δ guarantee.
	SingularDrops int
	// The stratified tasks (all 0 on the unstratified path): their clause
	// strata in total; how many of them stopped before spending their
	// trial cap — the empirical-Bernstein bound converged below δ ahead of
	// the Chernoff budget; and the independent lineage subformulas their
	// factoring pre-pass computed exactly instead of sampling.
	Strata, EarlyStops, ExactFactored int64
	// Ops aggregates per-operator work (tuple counts, estimated bytes
	// materialized) over the walk.
	Ops urel.StatsMap
	// SpilledBytes and SpillFiles report out-of-core activity
	// (Options.SpillDir): total bytes written to spill files and the number
	// of spill files created. Zero without spilling.
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
// the per-call cache that lives only for one evaluation.
func (e *Engine) SetCache(c *Cache) { e.shared = c }

// SetMemo attaches a long-lived memo of the database's estimator-free
// sub-plans: evaluations that do not spill replay them bit-identically, Ops
// and MaxMemory included. A nil memo (the default) walks every sub-plan.
func (e *Engine) SetMemo(m *algebra.SubplanMemo) { e.memo = m }

// DB returns the engine's database.
func (e *Engine) DB() *urel.Database { return e.db }

// EvalExact evaluates the query with exact confidence computation
// (delegating to the algebra package's U-relational evaluator). The
// evaluator walks the plan and runs its operators sequentially; the exact
// confidences of each conf, σ̂ and cert fan out across the engine's worker
// pool (Options.Workers), one task per lineage group. Results are
// bit-identical for any worker count.
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
	return e.walk(ctx, q, nil)
}

// walk evaluates q once on a fresh plan walker: a fresh clone of the
// database, on the engine's worker pool, under its own Options.MaxMemory
// budget and — when Options.SpillDir is set alongside it — its own spill
// directory, removed on return once the walker has brought a shed result
// home; with the engine's sub-plan memo. Exact and approximate evaluation
// differ only in the walker's Estimators: run's, or exact ones when run is
// nil.
func (e *Engine) walk(ctx context.Context, q algebra.Query, run *evalRun) (algebra.URelResult, error) {
	w := algebra.NewParallelURelEvaluator(e.db, e.pool).WithBudget(urel.NewMemBudget(e.opts.MaxMemory)).WithMemo(e.memo)
	if e.opts.SpillDir != "" && e.opts.MaxMemory > 0 {
		spill, err := urel.NewSpill(e.opts.SpillDir)
		if err != nil {
			return algebra.URelResult{}, err
		}
		defer spill.Close()
		w.WithSpill(spill)
	}
	if run != nil {
		w.WithEstimators(run)
	}
	res, err := w.EvalContext(ctx, q)
	return res, limitErr(err)
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

// EvalApprox evaluates the query approximately per Theorem 6.7: every σ̂
// doubles its own round budget l until each of its decisions' bounds is
// within its share of δ (or l reaches the round cap), and the plan is
// walked again, with halved shares and from a doubled l, only while the
// result's worst bound exceeds δ.
func (e *Engine) EvalApprox(q algebra.Query) (*Result, error) {
	return e.EvalApproxContext(context.Background(), q)
}

// EvalApproxContext is EvalApprox with cooperative cancellation: the
// context is checked between operators, between a σ̂'s rounds and between
// estimation chunks inside the worker pool, so cancelling ctx aborts the
// evaluation within one chunk boundary and returns ctx.Err(). Cancellation
// never corrupts the estimator cache — a task's snapshot is only published
// once its batch completed — so the engine remains fully usable after an
// aborted call.
func (e *Engine) EvalApproxContext(ctx context.Context, q algebra.Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxL, d := e.theorem67Cap(q)
	if e.opts.MaxRounds > 0 {
		maxL = e.opts.MaxRounds
	}
	// The estimator cache resumes tasks shared by content between operators
	// and, on a re-walk, every task of the walk before; a shared cache
	// (SetCache) also across Eval calls and queries.
	cache := e.shared
	if cache == nil {
		cache = NewCache(0)
	}
	l := min(max(e.opts.InitialRounds, 1), maxL)
	out := &Result{Stats: Stats{FinalRounds: l}}
	st := &out.Stats
	run := &evalRun{engine: e, ctx: ctx, cache: cache, stats: st, rounds: l, maxRounds: maxL, share: e.opts.Delta / float64(max(d, 1))}
	for {
		res, err := e.walk(ctx, q, run)
		if err != nil {
			return nil, err
		}
		st.Ops = res.Ops
		st.SpilledBytes += res.SpilledBytes
		st.SpillFiles += res.SpillFiles
		// The root check of Theorem 6.7 with Figure 3's stopping rule:
		// every result tuple's bound and every decision's (positive or
		// negative) within δ. A singular-looking one counts too — its
		// δᵢ(ε₀) still shrinks with l — so only a true singularity runs to
		// the l₀ cap. Each σ̂ already ran its decisions to their share or
		// to the cap, so only a σ̂ that stopped below the cap (slack) can
		// still lower the bound.
		worst, _ := res.Bounds.Worst(false)
		worst = max(worst, run.worstDecision)
		if worst <= e.opts.Delta || !run.slack {
			run.progress(st.FinalRounds, worst, st.Decisions, true)
			out.Rel, out.Complete, out.Bounds = res.Rel, res.Complete, res.Bounds
			return out, nil
		}
		// A re-walk is a plain walk with every share halved and every σ̂
		// starting at twice the largest l the walk before reached, so l
		// reaches the cap — and slack ends the loop — within log₂ l₀
		// re-walks. Its walker is fresh, so repair-key names its variables
		// as before and every task resumes the walk before's snapshots,
		// which lie within its budget; the figures of the walk start over,
		// the trial counts carry on.
		st.Restarts++
		run.share /= 2
		run.rounds = min(2*st.FinalRounds, maxL)
		run.worstDecision, run.slack, run.fper = 0, false, nil
		st.Decisions, st.SingularDrops, st.Strata, st.EarlyStops, st.ExactFactored = 0, 0, 0, 0, 0
	}
}

// theorem67Cap computes the l₀ of Theorem 6.7's proof from the query's
// σ̂ structure and the database size, l₀ ≥ 3·log(2·k·d·n^{k·d}/δ)/ε₀², and
// returns it with the plan's σ̂ count d.
func (e *Engine) theorem67Cap(q algebra.Query) (l0 int64, d int) {
	k := 1
	algebra.Walk(q, func(n algebra.Query) {
		if as, ok := n.(algebra.ApproxSelect); ok {
			d++
			if len(as.Args) > k {
				k = len(as.Args)
			}
		}
	})
	if d == 0 {
		return 1, 0
	}
	n := 1
	for _, r := range e.db.Rels {
		n += r.Len() * len(r.Schema())
	}
	return max(provenance.RoundsForProposition66(k, d, n, e.opts.Eps0, e.opts.Delta), 1), d
}

// evalRun is the sampling state of one approximate evaluation. As the
// walker's algebra.Estimators it is called (Estimate, approx.go; each σ̂
// batch's Round) in plan order, from the walker's goroutine: the batch
// maps and counters below are unsynchronized and σ̂ decisions are counted
// in plan order.
type evalRun struct {
	engine *Engine
	// ctx is checked between estimation chunks (sched.Pool.ForEachCtx),
	// bounding cancellation latency inside one operator.
	ctx context.Context
	// table is the walker's variable table, which the walk's repair-keys
	// grow: the current batch's lineage is estimated against it.
	table *vars.Table
	// rounds is the l every σ̂ of the walk starts at, maxRounds caps it,
	// and share is the part of δ each σ̂ decision's own error may take
	// (estimates.Round).
	rounds    int64
	maxRounds int64
	share     float64
	// cache resumes estimation tasks from snapshots under the same
	// lineage-content keys (Cache).
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
	// stats is the evaluation's Stats: the walk counts its trials, cache
	// hits, decisions and stratified-task figures straight into it.
	stats *Stats
	// worstDecision is the largest bound of the walk's final σ̂
	// decisions, singular and negative ones included (their tuples carry no entry in
	// the result's bounds). slack reports that a σ̂ with sampled tasks
	// stopped below the cap, so a re-walk with halved shares could help.
	worstDecision float64
	slack         bool
}
