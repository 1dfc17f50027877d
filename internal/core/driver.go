package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/sched"
)

// The estimation driver: one loop spends the trial budgets of a batch of
// tasks (one conf or σ̂ operator) in sampling waves.
//
//	sweep:   on merged counts only — settle tasks whose empirical-Bernstein
//	         (ε,δ) bound or budget is reached;
//	wave:    plan the next chunks of every unsettled task's lanes — a
//	         one-lane fixed budget in one wave, K lanes by Neyman
//	         allocation;
//	execute: sample the wave's (lane, chunk) units — on the engine's
//	         worker pool, or through its Distributor;
//	absorb:  validate the per-lane counts and fold them into the tasks.
//
// Determinism: every chunk's PRNG stream is fixed by (engine seed, content
// key, stratum index, chunk plan index); allocation and stopping decisions
// are pure functions of the merged integer counts and happen only at wave
// boundaries, after all of a wave's chunks merged. Results are therefore
// bit-identical for any worker count and either executor, and a task resumed
// from cached per-lane snapshots continues exactly the trajectory it would
// have taken. A σ̂ task runs one batch per round (estimates.Round) and
// continues in memory between them.

// target parameterizes one batch.
type target struct {
	// adaptive selects the convergence-driven loop (stratified conf
	// operators): sample waves until the empirical Delta(eps) ≤ delta or
	// the budget cap is spent. With adaptive false (flat conf, σ̂ rounds),
	// exactly the remaining budget is spent.
	adaptive   bool
	eps, delta float64
}

// laneWave is one lane's share of a wave: its trials [from, from+n), from
// being the trials it already holds, drawn as the chunk runs chunks splits
// them into. rng is set by the pool executor to the PRNG of a chunk the
// wave leaves open.
type laneWave struct {
	t       *task
	lane    int
	from, n int64
	rng     *rand.Rand
}

func (lw *laneWave) chunks() []sched.Chunk {
	return sched.Chunks(lw.from, lw.n, lw.t.lanes[lw.lane].chunkSize)
}

// runEstimates drives every task to its stopping condition.
//
// Cancelling the run's context aborts the batch between chunks and returns
// ctx.Err(); a tripped sampled-trials limit aborts it with a *LimitError
// before the over-budget chunk samples; counts a Distributor returns that
// cannot be the sum of the assigned chunks abort it with a *countsError.
// An aborted batch publishes nothing (publish), so the cross-run cache only
// ever holds complete wave boundaries.
func (run *evalRun) runEstimates(tasks []*task, tgt target) error {
	defer func() { run.batch = nil }()
	ctx := run.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	execute := run.samplePool
	if run.engine.dist != nil {
		execute = run.sampleRemote
	}
	pending := tasks
	for {
		// Sweep: settle tasks on merged, deterministic state.
		var still []*task
		for _, t := range pending {
			spent := t.est.Trials()
			switch { // settled by the first case that holds
			case tgt.adaptive && t.est.Delta(tgt.eps) <= tgt.delta:
			case spent >= t.budget:
			default:
				still = append(still, t)
				continue
			}
			if spent < t.budget {
				run.stats.EarlyStops++
			}
		}
		pending = still
		var wave []laneWave
		for _, t := range pending {
			wave = t.planWave(tgt, wave)
		}
		if len(wave) == 0 {
			// Everything settled, or caps exhausted below chunk granularity.
			break
		}
		counts, err := execute(ctx, wave)
		if err != nil {
			return err
		}
		for i := range wave {
			if err := run.absorb(&wave[i], counts[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// publish stores the per-lane snapshots of a batch's tasks, once they have
// spent their last budget, in the run's cache; the cache drops a snapshot
// no larger than the one it holds.
func (run *evalRun) publish(tasks []*task) {
	for _, t := range tasks {
		for s := range t.lanes {
			l := &t.lanes[s]
			if st := t.est.StratumState(s); st.Trials > 0 {
				run.cache.store(l.key, t.est.StratumClauses(s), st, run.engine.opts.Seed)
			}
		}
	}
}

// planWave appends t's share of the next wave. All decisions read merged
// counts at wave boundaries, so the trajectory — and the exact round total
// — is bit-identical for any worker count.
func (t *task) planWave(tgt target, wave []laneWave) []laneWave {
	// spend draws n more trials on lane s.
	spend := func(s int, n int64) {
		wave = append(wave, laneWave{t: t, lane: s, from: t.est.StratumTrials(s), n: n})
	}
	// whole draws lane s to the end of the full-th chunk past the one its
	// trials end in, so the lane ends on a chunk boundary.
	whole := func(s, full int) {
		size, from := t.lanes[s].chunkSize, t.est.StratumTrials(s)
		spend(s, (from/size+int64(full))*size-from)
	}
	switch {
	case tgt.adaptive:
		sizes := make([]int64, len(t.lanes))
		for s := range sizes {
			sizes[s] = t.lanes[s].chunkSize
		}
		for s, c := range t.est.NextWave(sizes, t.budget) {
			if c > 0 {
				whole(s, c)
			}
		}
	case len(t.lanes) == 1:
		// One lane has nothing to allocate: the rest of the budget in one
		// wave.
		spend(0, t.budget-t.est.Trials())
	default:
		// σ̂ rounds are variance-aware too: the remainder is spent in
		// doubling waves, each re-allocating by Neyman on the counts merged
		// so far, so the split sharpens as variance estimates tighten.
		// Intermediate waves end lanes on whole chunks; the final wave
		// spends exactly the remainder and may leave one open chunk per
		// lane. (A probe wave that cannot be tiled by whole chunks falls
		// back to one chunk, which can overshoot the round's target by at
		// most one chunk — the sweep then settles the task.)
		spent := t.est.Trials()
		remaining := t.budget - spent
		probe := max(spent, t.minActiveChunk())
		if probe >= remaining {
			for s, a := range t.est.Allocate(remaining) {
				if a > 0 {
					spend(s, a)
				}
			}
			break
		}
		alloc := t.est.Allocate(probe)
		added := false
		for s, a := range alloc {
			if full := int(a / t.lanes[s].chunkSize); full > 0 {
				whole(s, full)
				added = true
			}
		}
		if !added {
			// Every share rounded below one chunk: probe the lane with the
			// largest share (ties to the lowest index) so the wave always
			// makes progress.
			best, bestA := -1, int64(-1)
			for s, a := range alloc {
				if a > bestA {
					best, bestA = s, a
				}
			}
			whole(best, 1)
		}
	}
	return wave
}

// minActiveChunk returns the smallest chunk size among lanes with positive
// mass — the floor of an intermediate σ̂ wave, so the doubling schedule
// always starts with at least one whole chunk of probing.
func (t *task) minActiveChunk() int64 {
	least := int64(0)
	for s := range t.lanes {
		if size := t.lanes[s].chunkSize; t.est.StratumM(s) > 0 && (least == 0 || size < least) {
			least = size
		}
	}
	return least
}

// samplePool executes a wave on the engine's worker pool. All lanes'
// chunks are flattened into one unit list, so the pool load-balances
// across tuples and within a single large tuple alike. Each unit samples
// on a shard of the live estimator; counts are integer sums, hence
// independent of scheduling order and worker count. Every unit is charged
// against the trial limit immediately before it samples.
func (run *evalRun) samplePool(ctx context.Context, wave []laneWave) ([]RemoteCounts, error) {
	type unit struct {
		lw int
		c  sched.Chunk
	}
	var units []unit
	for i := range wave {
		for _, c := range wave[i].chunks() {
			units = append(units, unit{lw: i, c: c})
		}
	}
	counts := make([]RemoteCounts, len(wave))
	var mu sync.Mutex
	// fn only fails on a tripped resource limit, so the possible errors are
	// *LimitError and ctx.Err().
	err := run.engine.pool.ForEachCtx(ctx, len(units), func(i int) error {
		u := units[i]
		lw := &wave[u.lw]
		l := &lw.t.lanes[lw.lane]
		if err := run.chargeTrials(u.c.N); err != nil {
			return err
		}
		// Only a wave's first run can start inside a chunk: the lane's open
		// chunk, whose PRNG the lane keeps when the pool drew its prefix.
		var carried *rand.Rand
		if u.c.Skip > 0 {
			carried = l.rng
		}
		hits, rng := lw.t.est.SampleChunk(lw.lane, l.seed, u.c, carried)
		mu.Lock()
		counts[u.lw].Hits += hits
		counts[u.lw].Trials += u.c.N
		if u.c.Skip+u.c.N < l.chunkSize {
			lw.rng = rng // only a wave's last run can leave its chunk open
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// sampleRemote executes a wave through the engine's Distributor: one
// RemoteTask per lane, one scatter. The coordinator keeps everything else —
// exact algebra, factoring, chunk planning, wave allocation, stopping
// decisions, cache publication — so a remote run takes exactly the
// trajectory a local run would, over the same chunk runs. The whole wave's
// trials are charged against the trial limit before dispatch.
func (run *evalRun) sampleRemote(ctx context.Context, wave []laneWave) ([]RemoteCounts, error) {
	rts := make([]RemoteTask, len(wave))
	var total int64
	for i, lw := range wave {
		l := &lw.t.lanes[lw.lane]
		rts[i] = RemoteTask{
			KeyHi: lw.t.key.hi, KeyLo: lw.t.key.lo,
			Seed:      l.seed,
			ChunkSize: l.chunkSize,
			MaxStrata: lw.t.maxStrata,
			Stratum:   lw.lane,
			Clauses:   lw.t.f,
			Vars:      run.table,
			Chunks:    lw.chunks(),
		}
		total += lw.n
	}
	if err := run.chargeTrials(total); err != nil {
		return nil, err
	}
	counts, err := run.engine.dist.SampleChunks(ctx, rts)
	if err != nil {
		return nil, err
	}
	if len(counts) != len(rts) {
		return nil, fmt.Errorf("core: distributor returned %d results for %d tasks", len(counts), len(rts))
	}
	return counts, nil
}

// countsError reports per-lane counts that cannot be the sum of the chunks
// the lane was assigned — a buggy or hostile executor. The batch aborts
// before anything is merged or published.
type countsError struct {
	assigned int64
	got      RemoteCounts
}

func (e *countsError) Error() string {
	return fmt.Sprintf("core: executor returned impossible counts %+v for %d assigned trials", e.got, e.assigned)
}

// absorb folds one lane's wave counts into its task — the one place counts
// enter an estimator, whichever executor produced them — and keeps the
// PRNG of the chunk the wave left open, if the pool drew it.
func (run *evalRun) absorb(lw *laneWave, rc RemoteCounts) error {
	if rc.Trials != lw.n || rc.Hits < 0 || rc.Hits > rc.Trials {
		return &countsError{assigned: lw.n, got: rc}
	}
	lw.t.est.AbsorbStratum(lw.lane, rc.Hits, rc.Trials)
	run.stats.EstimatorTrials += rc.Trials
	lw.t.lanes[lw.lane].rng = lw.rng
	return nil
}
