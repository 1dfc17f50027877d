package core

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/algebra"
	"repro/internal/dnf"
	"repro/internal/karpluby"
	"repro/internal/rel"
	"repro/internal/sched"
)

// Stratified estimation path (Options.Strata / ConfThreshold / ConfTopK).
//
// Each estimation task is first run through the dnf.Factor pre-pass:
// independent easy subformulas are computed exactly and only the hard
// residue is sampled, with the exact part folded back in as
// p = E + (1−E)·p_R (the relative (ε,δ) guarantee on p_R carries to p —
// see factor.go). The residue is canonicalized, partitioned into weight
// strata (karpluby.PlanStrata, a deterministic function of the canonical
// clause set and the band bound), and estimated by sampling waves:
//
//	sweep:  on merged counts only — settle tasks whose threshold/top-k
//	        decision, empirical-Bernstein (ε,δ) bound, or trial cap is
//	        reached;
//	wave:   Neyman-allocate the next batch of chunks across the strata of
//	        every unsettled task, flatten all (task, stratum, chunk)
//	        triples into one pool batch, sample, merge.
//
// Determinism: every chunk's PRNG stream is fixed by (engine seed,
// residue content key, stratum index, chunk plan index); allocation and
// stopping decisions are pure functions of the merged integer counts and
// happen only at wave boundaries, after all of a wave's chunks merged.
// Results are therefore bit-identical for any worker count, and a run
// resumed from cached per-stratum snapshots continues exactly the
// trajectory the interrupted run would have taken.
//
// Caching: each stratum gets its own content-keyed cache entry (the key
// mixes the residue fingerprint with the band bound and stratum index, so
// plans under different Strata settings never collide). Only chunk-
// aligned counts are published — a fixed-budget pass's trailing partial
// chunk is dropped from the snapshot rather than carried as a mid-chunk
// tail, costing at most one chunk of re-sampling per stratum per restart.

// stratKey derives the cache key of one stratum of a stratified task. It
// mixes the residue's content key with the band bound and the stratum
// index: the stratification plan is a deterministic function of
// (canonical residue, maxStrata), so this triple uniquely identifies the
// stratum's clause subset — two plans with different band bounds can
// never alias each other's entries.
func stratKey(key contentKey, maxStrata, j int) contentKey {
	salt := rel.Mix64(uint64(maxStrata)*0x9e3779b97f4a7c15 + uint64(j) + 1)
	return contentKey{
		hi: rel.HashCombine(key.hi, salt),
		lo: rel.HashCombine(key.lo, rel.Mix64(salt)),
	}
}

// stratJob is one pending stratified estimation: a stratified merge
// target, per-stratum seeds/chunk sizes/cache keys, and the task's trial
// cap. The confValues of every tuple sharing this job's residue (same
// canonical clause set, possibly different exact-factored parts) are
// attached for threshold/top-k decisions.
type stratJob struct {
	est       *karpluby.Stratified
	key       contentKey
	f         dnf.F // canonical residue, shipped to shards in remote mode
	maxStrata int
	taskSeed  int64
	seeds     []int64      // per-stratum task seeds (karpluby.StratumSeed)
	sizes     []int64      // per-stratum chunk sizes (chunkTrials of |F_j|)
	keys      []contentKey // per-stratum cache keys

	budget      int64 // trial cap (adaptive) or pass target (fixed)
	startTrials int64 // trials resumed from cache across strata
	cvs         []*confValue

	done  bool
	early bool

	// wave bookkeeping, rewritten at each wave boundary by the
	// coordinator (never touched by pool workers).
	waveStart []int
	waveFull  []int

	mu sync.Mutex
	// partial* accumulate the counts contributed by undersized trailing
	// chunks (fixed-budget mode only); they are merged into est's totals
	// but subtracted again when publishing the chunk-aligned snapshot.
	partialHits   []int64
	partialTrials []int64
}

// newStratJob is newJob's counterpart for the stratified path: it factors
// the clause set, classifies trivial cases as exact confidence values,
// canonicalizes the residue, builds the stratified estimator with its
// deterministic plan/seeds/keys, and resumes per-stratum counts from the
// cache. Content-equal residues within one batch share a single job (each
// sighting keeps its own exact-factored part).
func (run *evalRun) newStratJob(f dnf.F, trials func(clauses int) int64, shortcutSingleton bool) (*confValue, *stratJob, error) {
	f = f.Dedup()
	switch {
	case len(f) == 0:
		return &confValue{exact: true, value: 0}, nil, nil
	case len(f[0]) == 0:
		return &confValue{exact: true, value: 1}, nil, nil
	}
	fac := dnf.Factor(f, run.db.Vars, dnf.DefaultFactorLimits)
	run.exactFactored += int64(fac.ExactComponents)
	res := fac.Residue
	switch {
	case len(res) == 0:
		return &confValue{exact: true, value: fac.Exact}, nil, nil
	case len(res) == 1 && shortcutSingleton:
		v := fac.Exact + (1-fac.Exact)*res[0].Weight(run.db.Vars)
		return &confValue{exact: true, value: v}, nil, nil
	}
	if run.fper == nil {
		run.fper = newFingerprinter(run.db.Vars)
	}
	res, key := run.fper.canonicalF(res)
	if shared, ok := run.sbatch[key]; ok {
		cv := &confValue{strat: shared.est, exactPart: fac.Exact}
		shared.cvs = append(shared.cvs, cv)
		return cv, nil, nil
	}
	maxStrata := run.engine.opts.strataCount()
	plan := karpluby.PlanStrata(res, run.db.Vars, maxStrata)
	est, err := karpluby.NewStratified(res, run.db.Vars, plan)
	if err != nil {
		if errors.Is(err, karpluby.ErrEmpty) {
			// Zero-weight residue: its confidence is exactly 0.
			return &confValue{exact: true, value: fac.Exact}, nil, nil
		}
		return nil, nil, err
	}
	run.strata += int64(est.StratumCount())
	job := &stratJob{
		est:       est,
		key:       key,
		f:         res,
		maxStrata: maxStrata,
		taskSeed:  sched.TaskSeedWords(run.engine.opts.Seed, key.hi, key.lo),
		budget:    trials(est.ClauseCount()),
	}
	k := est.StratumCount()
	job.seeds = make([]int64, k)
	job.sizes = make([]int64, k)
	job.keys = make([]contentKey, k)
	job.partialHits = make([]int64, k)
	job.partialTrials = make([]int64, k)
	job.waveStart = make([]int, k)
	job.waveFull = make([]int, k)
	for j := 0; j < k; j++ {
		job.seeds[j] = karpluby.StratumSeed(job.taskSeed, j)
		job.sizes[j] = chunkTrials(est.StratumClauses(j))
		job.keys[j] = stratKey(key, maxStrata, j)
	}
	if run.cache != nil {
		resumed := false
		for j := 0; j < k; j++ {
			if est.StratumM(j) <= 0 {
				continue
			}
			st, ok := run.cache.lookup(job.keys[j], est.StratumClauses(j), job.sizes[j], math.MaxInt64, run.engine.opts.Seed)
			if !ok {
				continue
			}
			// Stratified entries are always chunk-aligned; if a tail ever
			// appears (it should not), drop it rather than continue it.
			if st.PartialRNG != nil {
				st.Hits -= st.PartialHits
				st.Trials -= st.PartialTrials
			}
			ss := karpluby.StratumState{Hits: st.Hits, Trials: st.Trials, Chunks: st.Chunks}
			if err := est.ResumeStratum(j, ss); err == nil && st.Trials > 0 {
				job.startTrials += st.Trials
				resumed = true
			}
		}
		if resumed {
			run.cacheHits++
		}
	}
	cv := &confValue{strat: est, exactPart: fac.Exact}
	job.cvs = append(job.cvs, cv)
	if run.sbatch != nil {
		run.sbatch[key] = job
	}
	return cv, job, nil
}

// stratTarget parameterizes one stratified batch.
type stratTarget struct {
	// adaptive selects the convergence-driven loop (conf operators):
	// sample waves until the empirical Delta(eps) ≤ delta or the budget
	// cap is spent. With adaptive false (σ̂ passes), exactly the
	// remaining budget is Neyman-allocated in one wave.
	adaptive   bool
	eps, delta float64
	// decided, when non-nil, is the threshold/top-k early-stopping hook,
	// called on merged counts at wave boundaries only (so its verdicts
	// are deterministic for any worker count).
	decided func(*stratJob) bool
}

// stratTask is one (job, stratum, chunk) sampling unit of a wave.
type stratTask struct {
	j     *stratJob
	s     int
	chunk int
	n     int64
}

// runStratEstimates drives every job to its stopping condition with
// Neyman-allocated sampling waves across the engine's worker pool, then
// publishes chunk-aligned per-stratum snapshots to the run's cache. Like
// runEstimates, an aborted batch (context cancellation, tripped trial
// limit) publishes nothing — the cache only ever holds complete wave
// boundaries.
func (run *evalRun) runStratEstimates(jobs []*stratJob, tgt stratTarget) error {
	defer func() { run.sbatch = nil }()
	pending := make([]*stratJob, 0, len(jobs))
	for _, j := range jobs {
		if j != nil {
			pending = append(pending, j)
		}
	}
	for len(pending) > 0 {
		// Sweep: settle jobs on merged, deterministic state.
		var still []*stratJob
		for _, j := range pending {
			spent := j.est.Trials()
			switch {
			case tgt.decided != nil && tgt.decided(j):
				j.done, j.early = true, true
			case tgt.adaptive && j.est.Delta(tgt.eps) <= tgt.delta:
				j.done = true
			case spent >= j.budget:
				j.done = true
			default:
				still = append(still, j)
				continue
			}
			if spent < j.budget {
				run.earlyStops++
			}
		}
		pending = still
		if len(pending) == 0 {
			break
		}
		// Allocate the next wave for every unsettled job.
		var tasks []stratTask
		for _, j := range pending {
			for s := range j.waveFull {
				j.waveStart[s] = j.est.StratumChunks(s)
				j.waveFull[s] = 0
			}
			if tgt.adaptive {
				for s, c := range j.est.NextWave(j.sizes, j.budget) {
					j.waveFull[s] = c
					for i := 0; i < c; i++ {
						tasks = append(tasks, stratTask{j: j, s: s, chunk: j.waveStart[s] + i, n: j.sizes[s]})
					}
				}
			} else {
				// σ̂ fixed-budget passes are variance-aware too: instead of
				// Neyman-splitting the whole remainder on the (possibly
				// uniform-prior) θ̂ estimates in one shot, spend it in
				// doubling waves — each intermediate wave doubles the
				// cumulative spend and re-allocates on the counts merged so
				// far, so the split sharpens as variance estimates tighten.
				// Intermediate waves emit whole chunks only (a partial chunk
				// does not advance the stratum cursor, so re-allocating at
				// its index would re-sample a prefix of its stream); the
				// final wave spends exactly the remainder and may end on one
				// partial chunk per stratum. (A probe wave that cannot be
				// tiled by whole chunks falls back to one chunk, which can
				// overshoot the pass target by at most one chunk — the sweep
				// then settles the job.) All decisions read merged counts
				// at wave boundaries, so the trajectory — and the exact pass
				// total — is bit-identical for any worker count.
				spent := j.est.Trials()
				remaining := j.budget - spent
				wave := spent
				if min := minActiveChunk(j); wave < min {
					wave = min
				}
				if wave >= remaining {
					// Final wave: exactly the remainder.
					for s, a := range j.est.Allocate(remaining) {
						if a <= 0 {
							continue
						}
						full := int(a / j.sizes[s])
						j.waveFull[s] = full
						for i := 0; i < full; i++ {
							tasks = append(tasks, stratTask{j: j, s: s, chunk: j.waveStart[s] + i, n: j.sizes[s]})
						}
						if rem := a % j.sizes[s]; rem > 0 {
							tasks = append(tasks, stratTask{j: j, s: s, chunk: j.waveStart[s] + full, n: rem})
						}
					}
				} else {
					alloc := j.est.Allocate(wave)
					added := 0
					for s, a := range alloc {
						full := int(a / j.sizes[s])
						if full <= 0 {
							continue
						}
						j.waveFull[s] = full
						added += full
						for i := 0; i < full; i++ {
							tasks = append(tasks, stratTask{j: j, s: s, chunk: j.waveStart[s] + i, n: j.sizes[s]})
						}
					}
					if added == 0 {
						// Every share rounded below one chunk: probe the
						// stratum with the largest share (ties to the lowest
						// index) so the wave always makes progress.
						best, bestA := -1, int64(-1)
						for s, a := range alloc {
							if a > bestA {
								best, bestA = s, a
							}
						}
						j.waveFull[best] = 1
						tasks = append(tasks, stratTask{j: j, s: best, chunk: j.waveStart[best], n: j.sizes[best]})
					}
				}
			}
		}
		if len(tasks) == 0 {
			// Caps exhausted below chunk granularity: stop cleanly.
			for _, j := range pending {
				j.done = true
			}
			break
		}
		// Run the wave. Every task's stream is fixed by (stratum seed,
		// plan index); merges are commutative integer sums.
		ctx := run.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		if run.engine.dist != nil {
			if err := run.remoteStratWave(ctx, tasks); err != nil {
				return err
			}
			for _, j := range pending {
				for s, c := range j.waveFull {
					if c > 0 {
						j.est.AdvanceStratum(s, j.waveStart[s]+c)
					}
				}
			}
			continue
		}
		err := run.engine.pool.ForEachCtx(ctx, len(tasks), func(i int) error {
			t := tasks[i]
			if err := run.chargeTrials(t.n); err != nil {
				return err
			}
			rng := sched.NewRand(sched.ChunkSeed(t.j.seeds[t.s], t.chunk))
			sh := t.j.est.Shard(t.s, rng)
			sh.Add(int(t.n))
			t.j.mu.Lock()
			t.j.est.MergeShard(t.s, sh)
			if t.n < t.j.sizes[t.s] {
				t.j.partialHits[t.s] += sh.Hits()
				t.j.partialTrials[t.s] += t.n
			}
			t.j.mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}
		// Advance cursors past the wave's full chunks: the wave barrier
		// guarantees every chunk below the new cursor has merged.
		for _, j := range pending {
			for s, c := range j.waveFull {
				if c > 0 {
					j.est.AdvanceStratum(s, j.waveStart[s]+c)
				}
			}
		}
	}
	// Publish chunk-aligned snapshots and account trials.
	for _, j := range jobs {
		if j == nil {
			continue
		}
		run.trials += j.est.Trials() - j.startTrials
		run.reused += j.startTrials
		if run.cache == nil {
			continue
		}
		for s := 0; s < j.est.StratumCount(); s++ {
			if j.est.StratumM(s) <= 0 {
				continue
			}
			aligned := j.est.StratumTrials(s) - j.partialTrials[s]
			hits := j.est.StratumHits(s) - j.partialHits[s]
			if aligned <= 0 {
				continue
			}
			run.cache.store(j.keys[s], j.est.StratumClauses(s), j.sizes[s],
				aligned, hits, 0, 0, nil, run.engine.opts.Seed)
		}
	}
	return nil
}

// minActiveChunk returns the smallest chunk size among strata with
// positive mass — the floor of an intermediate σ̂ wave, so the doubling
// schedule always starts with at least one whole chunk of probing.
func minActiveChunk(j *stratJob) int64 {
	min := int64(0)
	for s, size := range j.sizes {
		if j.est.StratumM(s) <= 0 {
			continue
		}
		if min == 0 || size < min {
			min = size
		}
	}
	return min
}

// approxConfStrat is approxConf on the stratified path: same contract
// (complete output relation with an estimated P column), different
// estimation machinery — factoring pre-pass, per-stratum Neyman waves,
// empirical-Bernstein stopping, and optional threshold/top-k early
// stopping. Threshold/top-k never filter the output: every tuple still
// appears with its estimate; the options only govern how much sampling
// effort a tuple receives once its decision is settled.
func (run *evalRun) approxConfStrat(ev *algebra.URelEvaluator, in algebra.URelResult, pcol string) (algebra.URelResult, error) {
	opts := run.engine.opts
	eps, delta := opts.confEps(), opts.confDelta()
	var tuples []rowConf
	var jobs []*stratJob
	run.sbatch = make(map[contentKey]*stratJob)
	budget := func(clauses int) int64 { return karpluby.TrialsFor(eps, delta, clauses) }
	for tc := range ev.Exec().LineageSeq(in.Rel) {
		cv, job, err := run.newStratJob(tc.F, budget, true)
		if err != nil {
			return algebra.URelResult{}, err
		}
		if job != nil {
			jobs = append(jobs, job)
		}
		tuples = append(tuples, rowConf{row: tc.Row, cv: cv})
	}
	tgt := stratTarget{adaptive: true, eps: eps, delta: delta}
	if opts.ConfThreshold > 0 || opts.ConfTopK > 0 {
		all := make([]*confValue, len(tuples))
		for i, t := range tuples {
			all[i] = t.cv
		}
		tgt.decided = confDecider(all, opts.ConfThreshold, opts.ConfTopK, delta)
	}
	if err := run.runStratEstimates(jobs, tgt); err != nil {
		return algebra.URelResult{}, err
	}
	return confResult(in, pcol, tuples), nil
}

// confDecider builds the wave-boundary early-stopping hook for threshold
// and top-k conf queries. A job settles when every tuple sharing its
// residue is decided under every enabled criterion:
//
//   - threshold τ: the tuple's confidence interval at level delta lies
//     entirely above or entirely below τ;
//   - top-k: interval separation against the other tuples of the same
//     operator — the tuple is definitely in the top k (at most k−1 other
//     intervals reach above its lower bound) or definitely out (at least
//     k other lower bounds lie at or above its upper bound).
//
// The hook reads only merged counts and is called only at wave
// boundaries, so its verdicts are deterministic for any worker count.
func confDecider(all []*confValue, tau float64, topk int, delta float64) func(*stratJob) bool {
	decidedCV := func(cv *confValue) bool {
		lo, hi := cv.bounds(delta)
		if tau > 0 && !(lo > tau || hi < tau) {
			return false
		}
		if topk > 0 {
			above, reach := 0, 0
			for _, o := range all {
				if o == cv {
					continue
				}
				olo, ohi := o.bounds(delta)
				if ohi > lo {
					reach++ // could still outrank cv
				}
				if olo >= hi {
					above++ // definitely outranks cv
				}
			}
			in := reach <= topk-1
			out := above >= topk
			if !in && !out {
				return false
			}
		}
		return true
	}
	return func(j *stratJob) bool {
		if len(j.cvs) == 0 {
			return false
		}
		for _, cv := range j.cvs {
			if !decidedCV(cv) {
				return false
			}
		}
		return true
	}
}
