package core

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/dnf"
	"repro/internal/karpluby"
	"repro/internal/rel"
	"repro/internal/sched"
)

// task is one pending Karp–Luby estimation: a stratified merge target over
// the canonical clause set, one lane per stratum, and the trial budget.
//
// A flat task (Options.Strata unset) is the one-lane case — the estimator
// is built over the single-stratum plan, which samples the flat Karp–Luby
// stream bit for bit — and differs from a stratified one in a handful of
// values, not in code path: no dnf.Factor pre-pass, maxStrata 0 on the
// wire, the content key itself as the lane's cache key, the paper's
// Chernoff δ(ε) and unclamped estimate (confValue), and a cache lookup
// that resumes only snapshots within its budget (resume).
type task struct {
	est       *karpluby.Stratified
	key       contentKey
	f         dnf.F // canonical clause set, shipped to shards in remote mode
	maxStrata int   // band bound of the plan; 0 marks a flat task
	lanes     []lane

	budget int64 // trial cap (adaptive) or round target (fixed)
	open   bool  // a σ̂ decision reading it is above its share (Decide)
}

func (t *task) flat() bool { return t.maxStrata == 0 }

// lane is one chunk-stream family of a task — one stratum's trials. Chunk
// c holds the lane's trials [c·chunkSize, (c+1)·chunkSize) on the stream
// seeded by sched.ChunkSeed(seed, c). The lane's counts are its estimator
// stratum's (hits, trials), cached under key, so the lane goes on at trial
// trials%chunkSize of chunk trials/chunkSize. rng, when non-nil, is that
// chunk's PRNG positioned there — kept when the worker pool drew the
// chunk's prefix, so the next wave continues it instead of re-drawing the
// prefix (karpluby.SampleChunk).
type lane struct {
	seed      int64
	chunkSize int64
	key       contentKey
	rng       *rand.Rand
}

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

// newTask classifies one clause set as an exact confidence value or an
// estimation task with the trial budget given by trials(|F|).
//
// With maxStrata > 0 the clause set first goes through the dnf.Factor
// pre-pass: independent easy subformulas are computed exactly and only the
// hard residue is sampled, with the exact part folded back in as
// p = E + (1−E)·p_R (the relative (ε,δ) guarantee on p_R carries to p —
// see factor.go). Empty and zero-weight sets are exact values; so is a
// set dnf.Certain proves every world extends — a tautology is one — whose
// value is exactly 1 before any factoring, as dnf.Confidence's is; and so
// is a set whose clauses exclude one another through one variable
// (dnf.Exclusive; a single clause is one): its dnf.Confidence — on a flat
// task, where exactPart is 0, the exact evaluator's very bits.
//
// What is left is canonicalized (content order — see content.go) and
// partitioned into weight strata (karpluby.PlanStrata, a deterministic
// function of the canonical clause set and the band bound; one stratum for
// a flat task). Every lane's seed is derived from Options.Seed, the content
// fingerprint and the stratum index, so equal seeds give bit-identical
// estimates for any worker count, and content-equal tasks sample identical
// streams wherever they appear; each lane then resumes (resume).
//
// Within one batch (one conf or σ̂ operator), content-equal clause sets
// share a single task: the second and later sightings return a confValue
// bound to the first one's task (each keeps its own exact-factored part),
// so duplicated lineage is estimated once.
func (run *evalRun) newTask(f dnf.F, trials func(clauses int) int64, maxStrata int) (*confValue, *task, error) {
	f = f.Dedup()
	switch {
	case len(f) == 0:
		return &confValue{exact: true, value: 0}, nil, nil
	case dnf.Certain(f, run.table):
		return &confValue{exact: true, value: 1}, nil, nil
	}
	exactPart := 0.0
	if maxStrata > 0 {
		fac := dnf.Factor(f, run.table, dnf.DefaultFactorLimits)
		run.stats.ExactFactored += int64(fac.ExactComponents)
		f, exactPart = fac.Residue, fac.Exact
	}
	switch {
	case len(f) == 0:
		return &confValue{exact: true, value: exactPart}, nil, nil
	case dnf.Exclusive(f):
		v := exactPart + (1-exactPart)*dnf.Confidence(f, run.table)
		return &confValue{exact: true, value: v}, nil, nil
	}
	if run.fper == nil {
		run.fper = newFingerprinter(run.table)
	}
	f, key := run.fper.canonicalF(f)
	if shared, ok := run.batch[key]; ok {
		// Same canonical clause set, same budget function → same task.
		return &confValue{t: shared, exactPart: exactPart}, nil, nil
	}
	est, err := karpluby.NewStratified(f, run.table, karpluby.PlanStrata(f, run.table, max(maxStrata, 1)))
	if err != nil {
		if errors.Is(err, karpluby.ErrEmpty) {
			// Zero-weight clause set: its confidence is exactly 0.
			return &confValue{exact: true, value: exactPart}, nil, nil
		}
		return nil, nil, err
	}
	t := &task{
		est:       est,
		key:       key,
		f:         f,
		maxStrata: maxStrata,
		lanes:     make([]lane, est.StratumCount()),
	}
	taskSeed := sched.TaskSeedWords(run.engine.opts.Seed, key.hi, key.lo)
	for j := range t.lanes {
		l := &t.lanes[j]
		l.seed = karpluby.StratumSeed(taskSeed, j)
		l.chunkSize = karpluby.DefaultChunk(est.StratumClauses(j))
		l.key = key
		if !t.flat() {
			l.key = stratKey(key, maxStrata, j)
		}
	}
	run.resume(t, trials(est.ClauseCount()))
	if run.batch != nil {
		run.batch[key] = t
	}
	return &confValue{t: t, exactPart: exactPart}, t, nil
}

// resume sets a new task's budget and starts every lane from the snapshot
// its cache entry holds (Cache), or from zero counts without one; the
// resumed trials count as reused. A flat task — conf or σ̂ — resumes only
// snapshots within its budget, so its P is a from-scratch run's whatever
// the cache holds; a stratified task's budget is a cap over all its lanes,
// and each lane resumes whatever prefix of its chunk stream is cached.
func (run *evalRun) resume(t *task, budget int64) {
	t.budget = budget
	lookupTotal := budget
	if !t.flat() {
		run.stats.Strata += int64(len(t.lanes))
		lookupTotal = math.MaxInt64
	}
	resumed := false
	for j := range t.lanes {
		l := &t.lanes[j]
		var st karpluby.StratumState
		ok := false
		if t.est.StratumM(j) > 0 {
			st, ok = run.cache.lookup(l.key, t.est.StratumClauses(j), lookupTotal, run.engine.opts.Seed)
		}
		if t.est.ResumeStratum(j, st) != nil {
			st, ok = karpluby.StratumState{}, false
		}
		run.stats.ReusedTrials += st.Trials
		resumed = resumed || ok
	}
	if resumed {
		run.stats.CacheHits++
	}
}
