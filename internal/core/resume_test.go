package core

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/karpluby"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// resumeDB builds the canonical resume workload: R(ID) has nShat tuples
// whose confidence 1−0.7⁴ ≈ 0.76 sits close to (but a non-singular margin
// away from) the σ̂ threshold 0.7, so the σ̂ needs many rounds to push δᵢ
// below δ; S(SID) has nConf tuples with 4-clause lineages whose conf
// estimation spends a full fixed (ε,δ) budget.
func resumeDB(nShat, nConf int) *urel.Database {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	for i := 0; i < nShat; i++ {
		for j := 0; j < 4; j++ {
			v := db.Vars.Add("r"+strconv.Itoa(i)+"_"+strconv.Itoa(j), []float64{0.3, 0.7}, nil)
			r.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
		}
	}
	db.AddURelation("R", r, false)
	s := urel.NewRelation(rel.NewSchema("SID"))
	for i := 0; i < nConf; i++ {
		for j := 0; j < 4; j++ {
			v := db.Vars.Add("s"+strconv.Itoa(i)+"_"+strconv.Itoa(j), []float64{0.3, 0.7}, nil)
			s.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
		}
	}
	db.AddURelation("S", s, false)
	return db
}

// resumeQuery pairs a round-hungry σ̂ with a fixed-budget conf in one plan.
func resumeQuery() algebra.Query {
	return algebra.Product{
		L: algebra.ApproxSelect{
			In:   algebra.Base{Name: "R"},
			Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
			Pred: predapprox.Linear([]float64{1}, 0.7),
		},
		R: algebra.Conf{In: algebra.Base{Name: "S"}, As: "PC"},
	}
}

func resumeOpts(seed int64, workers int) Options {
	return Options{Eps0: 0.05, Delta: 0.1, Seed: seed, Workers: workers, MaxRounds: 1 << 13}
}

// round is what Options.Progress reports about one σ̂ round.
type round struct {
	rounds int64
	worst  float64
}

// evalRounds runs q under opts and records every σ̂ round.
func evalRounds(t *testing.T, db *urel.Database, opts Options, q algebra.Query) (*Result, []round) {
	t.Helper()
	var rounds []round
	opts.Progress = func(p Progress) {
		if !p.Done {
			rounds = append(rounds, round{p.Rounds, p.WorstBound})
		}
	}
	res, err := NewEngine(db, opts).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	return res, rounds
}

// pinnedRuns evaluates the resume workload with its σ̂ over one tuple —
// one task, open until the last round — then once more from scratch at
// each budget l the σ̂ visited: a fresh engine pinned at l (InitialRounds =
// MaxRounds = l), which runs a single round.
func pinnedRuns(t *testing.T, opts Options) (res *Result, pinned []*Result) {
	t.Helper()
	db, q := resumeDB(1, 2), resumeQuery()
	res, rounds := evalRounds(t, db, opts, q)
	if res.Stats.FinalRounds < 8 || res.Stats.Restarts != 0 || rounds[len(rounds)-1].rounds != res.Stats.FinalRounds {
		t.Fatalf("workers=%d: l = %d over %d rounds and %d re-walks; want ≥ 3 doublings and no re-walk",
			opts.Workers, res.Stats.FinalRounds, len(rounds), res.Stats.Restarts)
	}
	for _, r := range rounds {
		pinnedOpts := opts
		pinnedOpts.InitialRounds, pinnedOpts.MaxRounds = r.rounds, r.rounds
		p, ps := evalRounds(t, db, pinnedOpts, q)
		if len(ps) != 1 || p.Stats.ReusedTrials != 0 {
			t.Fatalf("workers=%d l=%d: pinned run took %d rounds and reused %d trials, want one from-scratch round",
				opts.Workers, r.rounds, len(ps), p.Stats.ReusedTrials)
		}
		pinned = append(pinned, p)
		if ps[0].worst != r.worst {
			t.Errorf("workers=%d l=%d: continued round's worst bound %v differs from the pinned run's %v",
				opts.Workers, r.rounds, r.worst, ps[0].worst)
		}
	}
	return res, pinned
}

// TestResumeBitIdentical is the continuation contract: a σ̂ that carries
// its tasks from round to round in memory is, round by round, the
// from-scratch evaluation at that round's budget — the same worst bound at
// every l (checked by pinnedRuns), and at the final l the same rows, float
// bit patterns, error bounds and singularity flags, for any worker count
// under one seed. The (ε,δ) guarantee is therefore untouched by
// continuation: the final estimates ARE the from-scratch estimates.
func TestResumeBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		res, pinned := pinnedRuns(t, resumeOpts(20080609, workers))
		final := pinned[len(pinned)-1]
		if final.Stats.FinalRounds != res.Stats.FinalRounds {
			t.Fatalf("workers=%d: last pinned l=%d, continued run stopped at l=%d", workers, final.Stats.FinalRounds, res.Stats.FinalRounds)
		}
		got, want := resultFingerprint(t, res), resultFingerprint(t, final)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d tuples, pinned run has %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: tuple %d differs from the pinned run:\n got %s\nwant %s", workers, i, got[i], want[i])
			}
		}
	}
}

// TestResumeSavesTrials pins what continuation buys: the in-process
// executor never draws a trial twice, so the continued run samples exactly
// what the pinned run at its final l samples, and reuses nothing, while the
// pinned runs — every round drawn from scratch, the paper-literal cost E10
// reports — add up to at least 1.5× more.
func TestResumeSavesTrials(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		res, pinned := pinnedRuns(t, resumeOpts(7, workers))
		var scratch int64
		for _, r := range pinned {
			scratch += r.Stats.EstimatorTrials
		}
		final := pinned[len(pinned)-1].Stats.EstimatorTrials
		if res.Stats.EstimatorTrials != final || res.Stats.ReusedTrials != 0 {
			t.Errorf("workers=%d: sampled %d and reused %d trials, want the final pinned run's %d and none",
				workers, res.Stats.EstimatorTrials, res.Stats.ReusedTrials, final)
		}
		if float64(scratch) < 1.5*float64(res.Stats.EstimatorTrials) {
			t.Errorf("workers=%d: continuation sampled %d trials vs %d from scratch, want ≥ 1.5× fewer",
				workers, res.Stats.EstimatorTrials, scratch)
		}
	}
}

// validState reports whether a cache snapshot is internally consistent.
func validState(s karpluby.StratumState) bool {
	return s.Hits >= 0 && s.Trials >= s.Hits
}

// TestEstimatorCacheRace hammers the cache with the access pattern
// runEstimates produces — concurrent stores from workers finishing jobs,
// interleaved with lookups — so the race detector can vet the locking.
func TestEstimatorCacheRace(t *testing.T) {
	c := NewCache(0)
	const goroutines, keys, rounds = 8, 16, 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := contentKey{hi: uint64((g + i) % keys), lo: 99}
				total := int64(4096 * (1 + i%4))
				c.store(key, 4, karpluby.StratumState{Hits: total / 3, Trials: total}, 1)
				if st, ok := c.lookup(key, 4, total*2, 1); ok && !validState(st) {
					t.Errorf("cache returned invalid state %+v", st)
				}
				// Mismatched clause counts and seeds must never resolve
				// (key-stability guards).
				if _, ok := c.lookup(key, 5, total, 1); ok {
					t.Error("lookup matched across clause-count mismatch")
				}
				if _, ok := c.lookup(key, 4, total, 2); ok {
					t.Error("lookup matched across seed mismatch")
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() == 0 || c.len() > keys {
		t.Errorf("cache holds %d entries, want 1..%d", c.len(), keys)
	}
	if s := c.Stats(); s.Hits == 0 || s.Misses == 0 || s.Entries != c.len() {
		t.Errorf("implausible cache stats %+v", s)
	}
}

// TestCacheLRUEviction pins the size bound: a cache of N entries never
// holds more than N, evicts in least-recently-used order, and counts
// evictions. Eviction only costs reuse — a re-store after eviction works.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	k := func(i uint64) contentKey { return contentKey{hi: i, lo: i} }
	c.store(k(1), 4, karpluby.StratumState{Hits: 10, Trials: 4096}, 1)
	c.store(k(2), 4, karpluby.StratumState{Hits: 20, Trials: 4096}, 1)
	// Touch k(1) so k(2) is the LRU victim when k(3) arrives.
	if _, ok := c.lookup(k(1), 4, 4096, 1); !ok {
		t.Fatal("warm entry k(1) missing")
	}
	c.store(k(3), 4, karpluby.StratumState{Hits: 30, Trials: 4096}, 1)
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	if _, ok := c.lookup(k(2), 4, 4096, 1); ok {
		t.Error("LRU entry k(2) survived eviction")
	}
	for _, key := range []contentKey{k(1), k(3)} {
		if _, ok := c.lookup(key, 4, 4096, 1); !ok {
			t.Errorf("entry %v evicted out of LRU order", key)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	// Updating an existing key must not evict (no growth).
	c.store(k(1), 4, karpluby.StratumState{Hits: 40, Trials: 8192}, 1)
	if c.len() != 2 || c.Stats().Evictions != 1 {
		t.Errorf("in-place update changed size/evictions: len=%d stats=%+v", c.len(), c.Stats())
	}
	// A store under a new seed is a separate entry (mixed-seed clients of
	// one shared cache must not clobber each other); it competes for
	// space like any other, evicting the LRU entry k(3).
	c.store(k(1), 4, karpluby.StratumState{Hits: 7, Trials: 4096}, 2)
	if st, ok := c.lookup(k(1), 4, 4096, 2); !ok || st.Hits != 7 {
		t.Errorf("second-seed store not visible: %+v ok=%v", st, ok)
	}
	if st, ok := c.lookup(k(1), 4, 8192, 1); !ok || st.Hits != 40 {
		t.Errorf("first-seed counts clobbered by a second-seed store: %+v ok=%v", st, ok)
	}
	if c.len() != 2 || c.Stats().Evictions != 2 {
		t.Errorf("after mixed-seed store: len=%d stats=%+v, want 2 entries / 2 evictions", c.len(), c.Stats())
	}
}

// TestResumeStressRace runs the full engine with a worker complement and
// many σ̂ tasks doubling their rounds, so pool workers sampling continued
// open chunks, cache stores and lookups run under the race detector.
func TestResumeStressRace(t *testing.T) {
	db := resumeDB(64, 32)
	eng := NewEngine(db, Options{
		Eps0: 0.05, Delta: 0.2, ConfEps: 0.2, ConfDelta: 0.2,
		Seed: 13, Workers: 8, MaxRounds: 64,
	})
	res, err := eng.EvalApprox(resumeQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FinalRounds < 2 {
		t.Error("stress run never doubled its rounds; continuation not exercised")
	}
}

// TestResumeCacheMonotone checks the stale-store guard: a smaller budget
// must not clobber a cached larger one.
func TestResumeCacheMonotone(t *testing.T) {
	c := NewCache(0)
	k := contentKey{hi: 11, lo: 13}
	c.store(k, 4, karpluby.StratumState{Hits: 100, Trials: 8192}, 1)
	c.store(k, 4, karpluby.StratumState{Hits: 40, Trials: 4096}, 1) // stale: must be dropped
	st, ok := c.lookup(k, 4, 8192, 1)
	if !ok || st.Trials != 8192 || st.Hits != 100 {
		t.Fatalf("stale store clobbered cache: got %+v ok=%v", st, ok)
	}
	// A lookup at a doubled budget resumes the whole cached prefix.
	st, ok = c.lookup(k, 4, 16384, 1)
	if !ok || st.Trials != 8192 || st.Hits != 100 {
		t.Fatalf("prefix lookup: got %+v ok=%v, want 100 hits over 8192 trials", st, ok)
	}
}

// TestResumeCacheUnalignedBudget pins a snapshot that ends inside a chunk:
// a lookup at the cached budget or a larger one returns its counts whole,
// for the next wave to go on from trial 10000 (1808 trials into chunk 2); a
// smaller budget, which the open chunk overlaps, and a foreign seed are
// refused.
func TestResumeCacheUnalignedBudget(t *testing.T) {
	c := NewCache(0)
	p := contentKey{hi: 1, lo: 2}
	// 2 full chunks + 1808 trials of the third.
	c.store(p, 4, karpluby.StratumState{Hits: 77, Trials: 10000}, 1)
	for _, total := range []int64{10000, 20000} {
		st, ok := c.lookup(p, 4, total, 1)
		if !ok || st.Trials != 10000 || st.Hits != 77 {
			t.Fatalf("lookup at %d: got %+v ok=%v, want 10000 trials / 77 hits", total, st, ok)
		}
		if !validState(st) {
			t.Fatalf("lookup at %d: invalid state %+v", total, st)
		}
	}
	if _, ok := c.lookup(p, 4, 20000, 99); ok {
		t.Fatal("seed-mismatch lookup resolved")
	}
	if _, ok := c.lookup(p, 4, 4096, 1); ok {
		t.Fatal("overlapping smaller-budget lookup resolved")
	}
}

// BenchmarkConfDoublingResume measures the restart-heavy plan
// (near-threshold σ̂ + fixed-budget conf) end to end. The sampled-trials/op
// metric is the paper-relevant cost driver; sampled + reused trials/op is
// what from-scratch restarts would draw (see TestResumeBitIdentical).
func BenchmarkConfDoublingResume(b *testing.B) {
	eng := NewEngine(resumeDB(3, 2), resumeOpts(7, 0))
	q := resumeQuery()
	b.ReportAllocs()
	var sampled, reused int64
	for i := 0; i < b.N; i++ {
		res, err := eng.EvalApprox(q)
		if err != nil {
			b.Fatal(err)
		}
		sampled += res.Stats.EstimatorTrials
		reused += res.Stats.ReusedTrials
	}
	b.ReportMetric(float64(sampled)/float64(b.N), "sampled-trials/op")
	b.ReportMetric(float64(reused)/float64(b.N), "reused-trials/op")
}
