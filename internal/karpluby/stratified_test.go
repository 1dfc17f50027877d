package karpluby

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// skewTable builds a table of binary variables whose "true" probabilities
// span several orders of magnitude — the weight profile stratification
// is designed for.
func skewTable(rng *rand.Rand, n int) *vars.Table {
	t := vars.NewTable()
	for i := 0; i < n; i++ {
		p := math.Pow(10, -3*rng.Float64()) // (0.001, 1]
		if p >= 1 {
			p = 0.999
		}
		t.Add("v"+string(rune('a'+i%26))+string(rune('0'+i/26)), []float64{p, 1 - p}, nil)
	}
	return t
}

// randSkewF draws nc random clauses over the table's variables.
func randSkewF(rng *rand.Rand, tab *vars.Table, nVars, nc int) dnf.F {
	var f dnf.F
	for c := 0; c < nc; c++ {
		nl := 1 + rng.Intn(3)
		var bs []vars.Binding
		for l := 0; l < nl; l++ {
			bs = append(bs, vars.Binding{Var: vars.Var(rng.Intn(nVars)), Alt: int32(rng.Intn(2))})
		}
		if a, err := vars.NewAssignment(bs...); err == nil {
			f = append(f, a)
		}
	}
	return f.Dedup()
}

// checkPlan asserts the stratification-plan invariants: the strata
// exactly partition the clause indices, no stratum is empty, the stratum
// count respects the bound, and clause weights are non-increasing across
// stratum boundaries (band order).
func checkPlan(t *testing.T, f dnf.F, tab *vars.Table, maxStrata int, plan [][]int) {
	t.Helper()
	if len(f) == 0 {
		return
	}
	bound := maxStrata
	if bound < 1 {
		bound = 1
	}
	if len(plan) > bound {
		t.Fatalf("plan has %d strata, bound is %d", len(plan), bound)
	}
	seen := make([]bool, len(f))
	total := 0
	for j, idx := range plan {
		if len(idx) == 0 {
			t.Fatalf("stratum %d is empty", j)
		}
		for _, i := range idx {
			if i < 0 || i >= len(f) {
				t.Fatalf("stratum %d has out-of-range clause %d", j, i)
			}
			if seen[i] {
				t.Fatalf("clause %d appears in two strata", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != len(f) {
		t.Fatalf("plan covers %d of %d clauses", total, len(f))
	}
	for j := 1; j < len(plan); j++ {
		maxNext := 0.0
		for _, i := range plan[j] {
			if w := f[i].Weight(tab); w > maxNext {
				maxNext = w
			}
		}
		for _, i := range plan[j-1] {
			if w := f[i].Weight(tab); w < maxNext {
				t.Fatalf("stratum %d clause weight %v below stratum %d max %v", j-1, w, j, maxNext)
			}
		}
	}
}

func TestPlanStrataPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nVars := 4 + rng.Intn(10)
		tab := skewTable(rng, nVars)
		f := randSkewF(rng, tab, nVars, 1+rng.Intn(40))
		if len(f) == 0 {
			continue
		}
		for _, maxStrata := range []int{1, 2, 4, 8, 64} {
			checkPlan(t, f, tab, maxStrata, PlanStrata(f, tab, maxStrata))
		}
	}
}

// FuzzPlanStrata drives the planner with arbitrary clause-set shapes and
// stratum bounds, asserting the partition invariants hold for every
// input the fuzzer finds.
func FuzzPlanStrata(f *testing.F) {
	f.Add(int64(1), 8, 3, 16)
	f.Add(int64(99), 1, 12, 1)
	f.Add(int64(7), 4096, 6, 64)
	f.Fuzz(func(t *testing.T, seed int64, maxStrata, nVars, nc int) {
		if nVars < 1 || nVars > 32 || nc < 1 || nc > 256 {
			t.Skip()
		}
		if maxStrata < -4 || maxStrata > 1<<20 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		tab := skewTable(rng, nVars)
		df := randSkewF(rng, tab, nVars, nc)
		if len(df) == 0 || len(df[0]) == 0 {
			t.Skip()
		}
		checkPlan(t, df, tab, maxStrata, PlanStrata(df, tab, maxStrata))
	})
}

// A single-stratum plan must consume the identical PRNG stream as the
// flat estimator: same chunk schedule in, bit-identical counts out. This
// is the parity contract that lets cached flat snapshots and stratified
// runs coexist on one seed derivation.
func TestSingleStratumBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		nVars := 5 + rng.Intn(6)
		tab := skewTable(rng, nVars)
		f := randSkewF(rng, tab, nVars, 8+rng.Intn(12))
		if len(f) < 2 || len(f[0]) == 0 {
			continue
		}
		plan := PlanStrata(f, tab, 1)
		if len(plan) != 1 {
			t.Fatalf("maxStrata=1 produced %d strata", len(plan))
		}
		s, err := NewStratified(f, tab, plan)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := NewEstimator(f, tab, nil)
		if err != nil {
			t.Fatal(err)
		}
		taskSeed := int64(1000 + trial)
		if got := StratumSeed(taskSeed, 0); got != taskSeed {
			t.Fatalf("StratumSeed(seed, 0) = %d, want the task seed %d", got, taskSeed)
		}
		const chunk = 512
		for c := 0; c < 4; c++ {
			cseed := sched.ChunkSeed(taskSeed, c)
			sh := s.Shard(0, rand.New(rand.NewSource(cseed)))
			sh.Add(chunk)
			s.MergeShard(0, sh)

			fsh := flat.Shard(rand.New(rand.NewSource(cseed)))
			fsh.Add(chunk)
			flat.Merge(fsh)
		}
		if s.Hits() != flat.Hits() || s.Trials() != flat.Trials() {
			t.Fatalf("trial %d: stratified (%d/%d) != flat (%d/%d)",
				trial, s.Hits(), s.Trials(), flat.Hits(), flat.Trials())
		}
		if s.Estimate() != flat.Estimate() {
			t.Fatalf("trial %d: estimates differ: %v vs %v", trial, s.Estimate(), flat.Estimate())
		}
	}
}

// The stratified estimate p̂ = Σ M_j·θ̂_j must converge to the exact
// confidence under the adaptive loop, within the requested relative ε.
func TestEstimateAdaptiveConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		nVars := 5 + rng.Intn(6)
		tab := skewTable(rng, nVars)
		f := randSkewF(rng, tab, nVars, 6+rng.Intn(20))
		if len(f) == 0 || len(f[0]) == 0 {
			continue
		}
		exact := dnf.Confidence(f, tab)
		res, err := EstimateAdaptive(f, tab, AdaptiveOptions{
			MaxStrata: 8, Eps: 0.05, Delta: 0.01, Seed: int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.P-exact) > 0.05*exact+1e-9 {
			t.Errorf("trial %d: estimate %v vs exact %v beyond ε=5%%", trial, res.P, exact)
		}
		if res.Sampled > res.Budget+int64(res.Strata)*DefaultChunk(len(f)) {
			t.Errorf("trial %d: sampled %d beyond budget %d + one chunk per stratum", trial, res.Sampled, res.Budget)
		}
	}
}

// Merged counts must not depend on the order shards are merged in — the
// property that makes worker-count independence possible.
func TestStratifiedMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nVars := 8
	tab := skewTable(rng, nVars)
	f := randSkewF(rng, tab, nVars, 24)
	plan := PlanStrata(f, tab, 4)
	run := func(order []int) (int64, int64) {
		s, err := NewStratified(f, tab, plan)
		if err != nil {
			t.Fatal(err)
		}
		type task struct{ j, c int }
		var tasks []task
		for j := 0; j < s.StratumCount(); j++ {
			for c := 0; c < 3; c++ {
				tasks = append(tasks, task{j, c})
			}
		}
		for _, i := range order {
			tk := tasks[i%len(tasks)]
			sh := s.Shard(tk.j, rand.New(rand.NewSource(sched.ChunkSeed(StratumSeed(7, tk.j), tk.c))))
			sh.Add(256)
			s.MergeShard(tk.j, sh)
		}
		return s.Hits(), s.Trials()
	}
	n := 4 * 3
	fwd := make([]int, n)
	rev := make([]int, n)
	for i := range fwd {
		fwd[i], rev[i] = i, n-1-i
	}
	h1, t1 := run(fwd)
	h2, t2 := run(rev)
	if h1 != h2 || t1 != t2 {
		t.Errorf("merge order changed counts: (%d,%d) vs (%d,%d)", h1, t1, h2, t2)
	}
}

// Snapshot / resume must continue the exact trajectory: resuming a
// partial run and finishing the chunk schedule yields the same counts as
// the uninterrupted run.
func TestStratumStateResumeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	nVars := 7
	tab := skewTable(rng, nVars)
	f := randSkewF(rng, tab, nVars, 18)
	plan := PlanStrata(f, tab, 4)
	const chunk, total = 512, 5
	sample := func(s *Stratified, j, from, to int) {
		for c := from; c < to; c++ {
			sh := s.Shard(j, rand.New(rand.NewSource(sched.ChunkSeed(StratumSeed(3, j), c))))
			sh.Add(chunk)
			s.MergeShard(j, sh)
		}
	}
	full, err := NewStratified(f, tab, plan)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewStratified(f, tab, plan)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < full.StratumCount(); j++ {
		sample(full, j, 0, total)
		sample(part, j, 0, 2)
	}
	resumed, err := NewStratified(f, tab, plan)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < part.StratumCount(); j++ {
		if err := resumed.ResumeStratum(j, part.StratumState(j)); err != nil {
			t.Fatal(err)
		}
		sample(resumed, j, int(resumed.StratumTrials(j)/chunk), total)
	}
	if resumed.Hits() != full.Hits() || resumed.Trials() != full.Trials() {
		t.Errorf("resumed run (%d/%d) differs from uninterrupted (%d/%d)",
			resumed.Hits(), resumed.Trials(), full.Hits(), full.Trials())
	}
	if resumed.Estimate() != full.Estimate() {
		t.Errorf("resumed estimate %v differs from uninterrupted %v", resumed.Estimate(), full.Estimate())
	}
}

// Allocate must split exactly the requested trials across active strata;
// NextWave must hand every active stratum work on a fresh estimator and
// return nil once the cap is spent.
func TestAllocateAndNextWaveInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nVars := 8
	tab := skewTable(rng, nVars)
	f := randSkewF(rng, tab, nVars, 30)
	s, err := NewStratified(f, tab, PlanStrata(f, tab, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, need := range []int64{1, 7, 100, 4096, 123457} {
		var sum int64
		for _, a := range s.Allocate(need) {
			if a < 0 {
				t.Fatalf("Allocate(%d) returned a negative share", need)
			}
			sum += a
		}
		if sum != need {
			t.Errorf("Allocate(%d) sums to %d", need, sum)
		}
	}
	sizes := make([]int64, s.StratumCount())
	for j := range sizes {
		sizes[j] = 64
	}
	wave := s.NextWave(sizes, 1<<40)
	if wave == nil {
		t.Fatal("NextWave on a fresh estimator returned nil")
	}
	for j, c := range wave {
		if s.StratumM(j) > 0 && c < 1 {
			t.Errorf("fresh wave gave active stratum %d no chunks", j)
		}
	}
	// Spend beyond a small cap, then the wave must stop.
	for j, c := range wave {
		for i := 0; i < c; i++ {
			sh := s.Shard(j, rand.New(rand.NewSource(int64(j*100+i))))
			sh.Add(int(sizes[j]))
			s.MergeShard(j, sh)
		}
	}
	if w := s.NextWave(sizes, s.Trials()); w != nil {
		t.Errorf("NextWave with spent cap returned %v, want nil", w)
	}
}

// AdditiveBound must bracket the exact confidence around the estimate (the
// run is deterministic, so this single check is stable; the level is
// generous).
func TestStratifiedBoundsCoverExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	nVars := 8
	tab := skewTable(rng, nVars)
	f := randSkewF(rng, tab, nVars, 20)
	exact := dnf.Confidence(f, tab)
	s, err := NewStratified(f, tab, PlanStrata(f, tab, 4))
	if err != nil {
		t.Fatal(err)
	}
	if w := s.AdditiveBound(0.05); w < math.Min(s.M(), 1) {
		t.Errorf("zero-trial width = %v, want vacuous (≥ min(M, 1) = %v)", w, math.Min(s.M(), 1))
	}
	for j := 0; j < s.StratumCount(); j++ {
		for c := 0; c < 8; c++ {
			sh := s.Shard(j, rand.New(rand.NewSource(sched.ChunkSeed(StratumSeed(5, j), c))))
			sh.Add(1024)
			s.MergeShard(j, sh)
		}
	}
	p, w := s.Estimate(), s.AdditiveBound(0.05)
	if math.Abs(p-exact) > w {
		t.Errorf("estimate %v ± AdditiveBound(0.05) = %v does not cover exact %v", p, w, exact)
	}
	if w >= 1 {
		t.Errorf("width %v is vacuous after sampling", w)
	}
}
