package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/dnf"
	"repro/internal/karpluby"
	"repro/internal/sched"
)

// minChunkTrials is the smallest trial chunk the scheduler hands a worker.
// Large enough to amortize per-chunk setup (one PRNG + one estimator
// shard), small enough that a single heavy tuple still splits into many
// chunks and saturates the pool.
const minChunkTrials = 4096

// chunkTrials returns the chunk size for a clause set of k clauses: a
// whole number of Figure-3 rounds (k trials each) totalling at least
// minChunkTrials trials. Round-aligned chunks keep the paper's
// per-round error bookkeeping intact, and the size depends only on k —
// never on the worker count — so the chunk plan (and therefore every
// chunk's PRNG stream) is identical no matter how many workers run it.
func chunkTrials(k int) int64 {
	rounds := (minChunkTrials + k - 1) / k
	return int64(rounds) * int64(k)
}

// estimateJob is one pending Karp–Luby estimation: a merge-target
// estimator, the deterministic per-task seed its chunk streams derive
// from (rooted in the task's lineage-content fingerprint), and the total
// trial budget to spend. When the run carries an estimator cache, the job
// may start from a resumed snapshot covering startChunk plan chunks
// (startTrials trials), so only the delta chunks are sampled.
type estimateJob struct {
	est       *karpluby.Estimator
	key       contentKey
	f         dnf.F // canonical clause set, shipped to shards in remote mode
	seed      int64
	total     int64
	chunkSize int64

	// Resumed-prefix coverage (zero when starting from scratch). When the
	// previous budget ended mid-chunk, startTrials includes the tail
	// counts below and the chunk at plan index startChunk is continued
	// from tailRNG instead of sampled from its seed.
	startChunk  int
	startTrials int64

	// Mid-chunk continuation of the previous budget's trailing partial
	// chunk (karpluby.State's Partial fields): counts already drawn from
	// chunk startChunk's stream, and the PRNG positioned right after
	// them.
	tailHits   int64
	tailTrials int64
	tailRNG    *rand.Rand

	mu sync.Mutex
	// partial* record the budget's trailing partial chunk (if any): its
	// counts and the PRNG that sampled it, which the cache carries to the
	// next run for mid-chunk continuation; see Cache.
	partialHits   int64
	partialTrials int64
	partialRNG    *rand.Rand
	// remaining counts unmerged chunks; the worker that merges the last
	// one publishes the job's state to the run's cache.
	remaining atomic.Int64
}

// newJob classifies one clause set as an exact confidence value (empty,
// tautological, or — when shortcutSingleton — single-clause lineage) or
// an estimation job with the trial budget given by trials(|F|). The clause
// set is canonicalized first (content order — see content.go) and the
// job's seed is derived from Options.Seed and the content fingerprint, so
// equal seeds give bit-identical estimates for any worker count, and
// content-equal tasks sample identical streams wherever they appear. When
// the run has an estimator cache (Options resume, the default), the job
// resumes from the snapshot left under the same content key — by an
// earlier restart, an earlier Eval call on a shared engine cache, or a
// different query over the same lineage.
//
// Within one batch (one conf or σ̂ operator), content-equal tasks share a
// single job: the second and later sightings return a confValue bound to
// the first job's estimator, so duplicated lineage is estimated once.
func (run *evalRun) newJob(f dnf.F, trials func(clauses int) int64, shortcutSingleton bool) (*confValue, *estimateJob, error) {
	f = f.Dedup()
	switch {
	case len(f) == 0:
		return &confValue{exact: true, value: 0}, nil, nil
	case len(f[0]) == 0:
		return &confValue{exact: true, value: 1}, nil, nil
	case len(f) == 1 && shortcutSingleton:
		return &confValue{exact: true, value: f[0].Weight(run.db.Vars)}, nil, nil
	}
	if run.fper == nil {
		run.fper = newFingerprinter(run.db.Vars)
	}
	f, key := run.fper.canonicalF(f)
	if shared, ok := run.batch[key]; ok {
		// Content-equal task already scheduled in this batch: share its
		// estimator (same canonical clause set, same budget function →
		// same total), estimate once.
		return &confValue{est: shared.est}, nil, nil
	}
	est, err := karpluby.NewEstimator(f, run.db.Vars, nil)
	if err != nil {
		return nil, nil, err
	}
	job := &estimateJob{
		est:       est,
		key:       key,
		f:         f,
		seed:      sched.TaskSeedWords(run.engine.opts.Seed, key.hi, key.lo),
		total:     trials(est.ClauseCount()),
		chunkSize: chunkTrials(est.ClauseCount()),
	}
	if run.cache != nil {
		if st, ok := run.cache.lookup(key, est.ClauseCount(), job.chunkSize, job.total, run.engine.opts.Seed); ok {
			if run.engine.dist != nil && st.PartialRNG != nil && st.Trials < job.total {
				// Remote mode cannot continue a mid-chunk PRNG tail across
				// the wire: drop the tail and let the shard re-sample that
				// chunk in full from its seed — still bit-identical, at one
				// chunk of extra sampling.
				st.Hits -= st.PartialHits
				st.Trials -= st.PartialTrials
				st.PartialHits, st.PartialTrials, st.PartialRNG = 0, 0, nil
			}
			if err := est.Resume(st); err == nil {
				run.cacheHits++
				job.startChunk = st.Chunks
				job.startTrials = st.Trials
				job.tailHits = st.PartialHits
				job.tailTrials = st.PartialTrials
				job.tailRNG = st.PartialRNG
				if st.Trials == job.total {
					// Exact replay: the snapshot already covers the whole
					// budget (including any trailing partial chunk), so no
					// plan chunk — not even the partial one past the
					// cursor — may run again.
					job.startChunk = sched.PlanChunks(job.total, job.chunkSize)
				}
			}
		}
	}
	if run.batch != nil {
		run.batch[key] = job
	}
	return &confValue{est: est}, job, nil
}

// runEstimates spends every job's remaining trial budget across the
// engine's worker pool. All jobs' delta-chunk plans are flattened into one
// task list, so the pool load-balances across tuples and within a single
// large tuple alike. Each chunk samples on a shard estimator whose PRNG
// stream is fixed by (job seed, chunk plan index); merged hit/trial counts
// are integer sums, hence independent of scheduling order and worker
// count — and, with resumption, of how the total budget was split across
// restarts.
//
// Cancelling the run's context aborts the batch between chunks and returns
// ctx.Err(). An aborted batch never publishes estimator snapshots for
// unfinished jobs (a job's state is stored only when its last chunk
// merges), so the cross-run cache only ever holds complete, valid
// snapshots. The same holds when the run's sampled-trials limit trips:
// the batch aborts with a *LimitError before the over-budget chunk
// samples.
func (run *evalRun) runEstimates(jobs []*estimateJob) error {
	if run.engine.dist != nil {
		return run.runEstimatesRemote(jobs)
	}
	defer func() { run.batch = nil }()
	type chunkTask struct {
		job *estimateJob
		c   sched.Chunk
	}
	var tasks []chunkTask
	for _, j := range jobs {
		chunks := sched.ChunksFrom(j.total, j.chunkSize, j.startChunk)
		j.remaining.Store(int64(len(chunks)))
		for _, c := range chunks {
			tasks = append(tasks, chunkTask{job: j, c: c})
		}
	}
	ctx := run.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// fn only fails on a tripped resource limit, so the possible errors are
	// *LimitError and ctx.Err().
	err := run.engine.pool.ForEachCtx(ctx, len(tasks), func(i int) error {
		t := tasks[i]
		j := t.job
		var (
			sh          *karpluby.Estimator
			rng         *rand.Rand
			chunkHits   int64
			chunkTrials int64
		)
		continued := j.tailRNG != nil && t.c.Index == j.startChunk
		draw := t.c.N
		if continued {
			draw -= j.tailTrials
		}
		if err := run.chargeTrials(draw); err != nil {
			return err
		}
		if continued {
			// Mid-chunk continuation: the previous budget already drew the
			// first tailTrials trials of this chunk's stream; continue the
			// saved PRNG for the remainder. The drawn sequence is
			// bit-identical to sampling the whole chunk from its seed, at
			// tailTrials fewer sampled trials (those counts arrived via
			// the resumed snapshot).
			sh = j.est.Shard(j.tailRNG)
			sh.Add(int(draw))
			rng = j.tailRNG
			chunkHits = j.tailHits + sh.Hits()
			chunkTrials = t.c.N
		} else {
			rng = sched.NewRand(sched.ChunkSeed(j.seed, t.c.Index))
			sh = j.est.Shard(rng)
			sh.Add(int(t.c.N))
			chunkHits = sh.Hits()
			chunkTrials = t.c.N
		}
		j.mu.Lock()
		j.est.Merge(sh)
		if t.c.N < j.chunkSize {
			// Only the plan's trailing chunk can be undersized; its counts
			// stay out of the next run's resumable prefix, but travel
			// with their PRNG so the next run can finish the chunk
			// mid-stream.
			j.partialHits = chunkHits
			j.partialTrials = chunkTrials
			j.partialRNG = rng
		}
		j.mu.Unlock()
		if j.remaining.Add(-1) == 0 {
			// Last chunk of this job: all merges happened-before this
			// atomic observation, so the totals are final. The cursor
			// marks the resumable boundary — full-size chunks only; a
			// trailing partial chunk's counts live in the partial fields
			// (see Cache) and stay outside it.
			j.est.AdvanceTo(sched.FullChunks(j.total, j.chunkSize))
			if run.cache != nil {
				run.cache.store(j.key, j.est.ClauseCount(), j.chunkSize,
					j.total, j.est.Hits(), j.partialHits, j.partialTrials, j.partialRNG,
					run.engine.opts.Seed)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, j := range jobs {
		run.trials += j.est.Trials() - j.startTrials
		run.reused += j.startTrials
	}
	return nil
}
