package karpluby

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// resumeEstimator builds a one-stratum estimator over a k-clause DNF of k
// independent binary variables (clause i asserts v_i = 0 with probability
// 0.3) — the plan a flat engine task samples.
func resumeEstimator(t testing.TB, k int) *Stratified {
	t.Helper()
	table := vars.NewTable()
	f := make(dnf.F, k)
	for i := 0; i < k; i++ {
		v := table.Add("v"+strconv.Itoa(i), []float64{0.3, 0.7}, nil)
		f[i] = vars.MustAssignment(vars.Binding{Var: v, Alt: 0})
	}
	s, err := NewStratified(f, table, PlanStrata(f, table, 1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runChunks samples the given runs of stratum 0 (SampleChunk, re-drawing
// any skipped prefix) and merges their counts.
func runChunks(s *Stratified, taskSeed int64, chunks []sched.Chunk) {
	for _, c := range chunks {
		hits, _ := s.SampleChunk(0, taskSeed, c, nil)
		s.AbsorbStratum(0, hits, c.N)
	}
}

func TestStateResumeRoundTrip(t *testing.T) {
	e := resumeEstimator(t, 5)
	runChunks(e, 1, sched.Chunks(0, 1234, 400))
	st := e.StratumState(0)
	if st.Trials != 1234 || st.Hits != e.Hits() {
		t.Fatalf("snapshot %+v does not reflect estimator (hits=%d trials=%d)", st, e.Hits(), e.Trials())
	}

	r := resumeEstimator(t, 5)
	if err := r.ResumeStratum(0, st); err != nil {
		t.Fatal(err)
	}
	if r.StratumState(0) != st {
		t.Errorf("resumed estimator state %+v, want %+v", r.StratumState(0), st)
	}
	if r.Estimate() != e.Estimate() {
		t.Errorf("resumed estimate %v, want %v", r.Estimate(), e.Estimate())
	}
	if r.Delta(0.1) != e.Delta(0.1) {
		t.Errorf("resumed delta %v, want %v", r.Delta(0.1), e.Delta(0.1))
	}
}

// An invalid snapshot is rejected and leaves the stratum at zero counts.
func TestResumeRejectsBadStates(t *testing.T) {
	for _, st := range []StratumState{
		{Hits: -1, Trials: 0},
		{Hits: 5, Trials: 4},
		{Hits: 0, Trials: -1},
	} {
		e := resumeEstimator(t, 3)
		runChunks(e, 2, sched.Chunks(0, 10, 10))
		if err := e.ResumeStratum(0, st); err == nil {
			t.Errorf("ResumeStratum(%+v) accepted an invalid state", st)
		}
		if got := e.StratumState(0); got != (StratumState{}) {
			t.Errorf("ResumeStratum(%+v) left %+v, want zero counts", st, got)
		}
	}
}

// TestResumeExtendsMatchScratch is the primitive-level statement of the
// engine's resume invariant: drawing trials [0, T₁), then resuming the
// snapshot and drawing only [T₁, T₂) — which starts inside a chunk, so
// SampleChunk re-draws that chunk's first T₁ mod size trials — yields counts
// bit-identical to drawing [0, T₂) from scratch, because a lane's trials
// are a prefix of its chunk stream and chunk streams depend only on (task
// seed, plan index).
func TestResumeExtendsMatchScratch(t *testing.T) {
	const (
		taskSeed = 99
		size     = 512
		t1       = int64(3*size + 200)
		t2       = int64(7*size + 123)
	)
	first := resumeEstimator(t, 4)
	runChunks(first, taskSeed, sched.Chunks(0, t1, size))
	st := first.StratumState(0)
	if st.Trials != t1 {
		t.Fatalf("first budget snapshot %+v, want %d trials", st, t1)
	}

	resumed := resumeEstimator(t, 4)
	if err := resumed.ResumeStratum(0, st); err != nil {
		t.Fatal(err)
	}
	runChunks(resumed, taskSeed, sched.Chunks(st.Trials, t2-st.Trials, size))

	scratch := resumeEstimator(t, 4)
	runChunks(scratch, taskSeed, sched.Chunks(0, t2, size))

	if resumed.Hits() != scratch.Hits() || resumed.Trials() != scratch.Trials() {
		t.Errorf("resumed (hits=%d trials=%d) differs from scratch (hits=%d trials=%d)",
			resumed.Hits(), resumed.Trials(), scratch.Hits(), scratch.Trials())
	}
	if resumed.Estimate() != scratch.Estimate() {
		t.Errorf("resumed estimate %v differs from scratch %v", resumed.Estimate(), scratch.Estimate())
	}
}

// TestSampleChunkSplits: a chunk drawn as one run, as a run continued on
// the PRNG the first call returned, and as a run whose prefix is re-drawn
// from the seed, has the same hits — the three ways the engine and the
// shards draw a lane's open chunk.
func TestSampleChunkSplits(t *testing.T) {
	e := resumeEstimator(t, 6)
	const seed, size, head = 5, 4096, 1234
	whole, _ := e.SampleChunk(0, seed, sched.Chunk{Index: 3, N: size}, nil)
	h1, rng := e.SampleChunk(0, seed, sched.Chunk{Index: 3, N: head}, nil)
	tail := sched.Chunk{Index: 3, Skip: head, N: size - head}
	carried, _ := e.SampleChunk(0, seed, tail, rng)
	redrawn, _ := e.SampleChunk(0, seed, tail, nil)
	if h1+carried != whole || h1+redrawn != whole {
		t.Errorf("whole chunk %d hits; head %d + carried tail %d, head + re-drawn tail %d", whole, h1, carried, redrawn)
	}
}

// Shards of a resumed estimator must not inherit the resumed counts —
// merging would then double-count the snapshot.
func TestShardOfResumedEstimatorIsFresh(t *testing.T) {
	e := resumeEstimator(t, 3)
	if err := e.ResumeStratum(0, StratumState{Hits: 7, Trials: 30}); err != nil {
		t.Fatal(err)
	}
	sh := e.Shard(0, rand.New(rand.NewSource(3)))
	if sh.Hits() != 0 || sh.Trials() != 0 {
		t.Fatalf("shard starts with hits=%d trials=%d, want zeros", sh.Hits(), sh.Trials())
	}
	sh.Add(10)
	e.MergeShard(0, sh)
	if e.Trials() != 40 {
		t.Errorf("merge after resume: trials=%d, want 40", e.Trials())
	}
}
