package karpluby

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// eagerTrial is the textbook transcription of Definition 4.1 the kernel
// replaced, kept as the tests' reference: draw a clause with probability
// p_f/M, sample EVERY other variable of F into a map world, then scan all
// earlier clauses. It shares nothing with the kernel but dnf.F and
// vars.Table.
type eagerTrial struct {
	f     dnf.F
	table *vars.Table
	vars  []vars.Var
	cum   []float64
	world map[vars.Var]int32
}

func newEagerTrial(f dnf.F, table *vars.Table) *eagerTrial {
	f = f.Dedup()
	e := &eagerTrial{f: f, table: table, vars: f.Vars(), world: map[vars.Var]int32{}}
	total := 0.0
	for _, a := range f {
		total += a.Weight(table)
		e.cum = append(e.cum, total)
	}
	return e
}

func (e *eagerTrial) m() float64 { return e.cum[len(e.cum)-1] }

func (e *eagerTrial) sample(rng *rand.Rand) int64 {
	u := rng.Float64() * e.m()
	idx := 0
	for idx < len(e.cum)-1 && e.cum[idx] < u {
		idx++
	}
	clear(e.world)
	for _, b := range e.f[idx] {
		e.world[b.Var] = b.Alt
	}
	for _, v := range e.vars {
		if _, ok := e.world[v]; ok {
			continue
		}
		u, acc := rng.Float64(), 0.0
		probs := e.table.Info(v).Probs
		alt := len(probs) - 1
		for a, p := range probs {
			if acc += p; u < acc {
				alt = a
				break
			}
		}
		e.world[v] = int32(alt)
	}
	for _, a := range e.f[:idx] {
		consistent := true
		for _, b := range a {
			if e.world[b.Var] != b.Alt {
				consistent = false
				break
			}
		}
		if consistent {
			return 0
		}
	}
	return 1
}

// oracleCases are seeded clause sets covering the shapes the kernel
// treats differently: multi-alternative variables (including certain,
// one-alternative ones), chains sharing a variable between neighbours, a
// clause set containing the empty assignment, and a single clause.
func oracleCases() map[string]func(rng *rand.Rand) (dnf.F, *vars.Table) {
	multiAlt := func(rng *rand.Rand) (dnf.F, *vars.Table) {
		tab := vars.NewTable()
		n := 4 + rng.Intn(5)
		for i := 0; i < n; i++ {
			probs := make([]float64, 1+rng.Intn(4))
			sum := 0.0
			for a := range probs {
				probs[a] = 0.1 + rng.Float64()
				sum += probs[a]
			}
			for a := range probs {
				probs[a] /= sum
			}
			tab.Add(fmt.Sprintf("m%d", i), probs, nil)
		}
		var f dnf.F
		for c := 0; c < 3+rng.Intn(10); c++ {
			var bs []vars.Binding
			for l := 0; l < 1+rng.Intn(3); l++ {
				v := vars.Var(rng.Intn(n))
				bs = append(bs, vars.Binding{Var: v, Alt: int32(rng.Intn(tab.DomSize(v)))})
			}
			if a, err := vars.NewAssignment(bs...); err == nil {
				f = append(f, a)
			}
		}
		return f, tab
	}
	return map[string]func(rng *rand.Rand) (dnf.F, *vars.Table){
		"multi-alt": multiAlt,
		"chain": func(rng *rand.Rand) (dnf.F, *vars.Table) {
			tab := vars.NewTable()
			n := 4 + rng.Intn(8)
			for i := 0; i <= n; i++ {
				p := 0.2 + 0.6*rng.Float64()
				tab.Add(fmt.Sprintf("c%02d", i), []float64{p, 1 - p}, nil)
			}
			f := make(dnf.F, n)
			for i := range f {
				f[i] = vars.MustAssignment(
					vars.Binding{Var: vars.Var(i), Alt: int32(rng.Intn(2))},
					vars.Binding{Var: vars.Var(i + 1), Alt: int32(rng.Intn(2))})
			}
			return f, tab
		},
		"with-empty-clause": func(rng *rand.Rand) (dnf.F, *vars.Table) {
			f, tab := multiAlt(rng)
			at := rng.Intn(len(f) + 1)
			f = append(f[:at:at], append(dnf.F{vars.Assignment{}}, f[at:]...)...)
			return f, tab
		},
		"single-clause": func(rng *rand.Rand) (dnf.F, *vars.Table) {
			f, tab := multiAlt(rng)
			return f[:1], tab
		},
	}
}

// TestKernelMatchesEagerReference: on seeded random clause sets the
// kernel's estimate and the eager reference's both sit inside (ε, δ) of
// the exact confidence, and their hit rates agree by a two-sample z-test
// (they estimate p/M with different M only in the last bits, so the rates
// are directly comparable).
func TestKernelMatchesEagerReference(t *testing.T) {
	const eps, delta = 0.05, 0.01
	for name, gen := range oracleCases() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for round := 0; round < 12; round++ {
				f, tab := gen(rng)
				exact := dnf.Confidence(f, tab)
				est, err := NewEstimator(f, tab, rand.New(rand.NewSource(int64(round))))
				if err != nil {
					t.Fatal(err)
				}
				ref := newEagerTrial(f, tab)
				if got, want := est.ClauseCount(), len(ref.f); got != want {
					t.Fatalf("round %d: ClauseCount = %d, dnf.Dedup leaves %d", round, got, want)
				}
				if math.Abs(est.M()-ref.m()) > 1e-12 {
					t.Fatalf("round %d: M = %v, reference %v", round, est.M(), ref.m())
				}
				n := TrialsFor(eps, delta, est.ClauseCount())
				est.Add(int(n))
				refRNG := rand.New(rand.NewSource(int64(1000 + round)))
				var refHits int64
				for i := int64(0); i < n; i++ {
					refHits += ref.sample(refRNG)
				}
				refEst := float64(refHits) * ref.m() / float64(n)
				for who, p := range map[string]float64{"kernel": est.Estimate(), "reference": refEst} {
					if math.Abs(p-exact) > eps*exact+1e-12 {
						t.Errorf("round %d: %s estimate %v outside ε=%v of exact %v", round, who, p, eps, exact)
					}
				}
				// Two-sample z-test on the hit rates at |z| < 4.5 (two-sided
				// tail ≈ 7e-6 per comparison; the seeds are fixed anyway).
				p1, p2 := float64(est.Hits())/float64(n), float64(refHits)/float64(n)
				pool := (p1 + p2) / 2
				if se := math.Sqrt(2 * pool * (1 - pool) / float64(n)); se > 0 {
					if z := (p1 - p2) / se; math.Abs(z) > 4.5 {
						t.Errorf("round %d: hit rates %v (kernel) vs %v (reference): z = %.2f", round, p1, p2, z)
					}
				} else if p1 != p2 {
					t.Errorf("round %d: degenerate hit rates differ: %v vs %v", round, p1, p2)
				}
			}
		})
	}
}

// TestStratifiedKernelMatchesExact runs the same clause sets through
// per-stratum shards: strata draw from their own band but test minimality
// against all of F in the kernel's order, so Σ M_j·θ̂_j must still land on
// the exact confidence.
func TestStratifiedKernelMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	gen := oracleCases()["multi-alt"]
	for round := 0; round < 12; round++ {
		f, tab := gen(rng)
		f = f.Dedup()
		exact := dnf.Confidence(f, tab)
		s, err := NewStratified(f, tab, PlanStrata(f, tab, 4))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < s.StratumCount(); j++ {
			sh := s.Shard(j, sched.NewRand(sched.ChunkSeed(StratumSeed(int64(round), j), 0)))
			sh.Add(200_000)
			s.MergeShard(j, sh)
		}
		if got := s.Estimate(); math.Abs(got-exact) > 0.02*exact {
			t.Errorf("round %d: stratified estimate %v vs exact %v", round, got, exact)
		}
	}
}

// TestWarmShardAddDoesNotAllocate: the trial loop touches only the
// shard's preallocated world.
func TestWarmShardAddDoesNotAllocate(t *testing.T) {
	f, tab := rand30x4()
	est, err := NewEstimator(f, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := est.Shard(sched.NewRand(1))
	sh.Add(1000)
	if allocs := testing.AllocsPerRun(10, func() { sh.Add(1000) }); allocs != 0 {
		t.Errorf("Add(1000) on a warmed shard allocates %v times, want 0", allocs)
	}
}

// TestRegistrationOrderIndependence: the same clause content over two
// tables whose variables were registered in different orders (hence
// different ids, and different binding order inside each Assignment)
// must sample identical streams — what the literal sort by name rank
// protects, now that binding order reaches the PRNG through lazy
// sampling.
func TestRegistrationOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const nVars = 9
	probs := make([][]float64, nVars)
	for i := range probs {
		p, q := 0.1+0.3*rng.Float64(), 0.1+0.3*rng.Float64()
		probs[i] = []float64{p, q, 1 - p - q}
	}
	type lit struct {
		v   int
		alt int32
	}
	var clauses [][]lit
	for c := 0; c < 14; c++ {
		seen := map[int]bool{}
		var cl []lit
		for l := 0; l < 2+rng.Intn(3); l++ {
			if v := rng.Intn(nVars); !seen[v] {
				seen[v] = true
				cl = append(cl, lit{v, int32(rng.Intn(3))})
			}
		}
		clauses = append(clauses, cl)
	}
	build := func(regOrder []int) (dnf.F, *vars.Table) {
		tab := vars.NewTable()
		id := make([]vars.Var, nVars)
		for _, i := range regOrder {
			id[i] = tab.Add(fmt.Sprintf("n%d", i), probs[i], nil)
		}
		f := make(dnf.F, len(clauses))
		for c, cl := range clauses {
			bs := make([]vars.Binding, len(cl))
			for l, x := range cl {
				bs[l] = vars.Binding{Var: id[x.v], Alt: x.alt}
			}
			f[c] = vars.MustAssignment(bs...)
		}
		return f, tab
	}
	ident := make([]int, nVars)
	for i := range ident {
		ident[i] = i
	}
	run := func(regOrder []int) (hits int64, est float64) {
		f, tab := build(regOrder)
		e, err := NewEstimator(f, tab, sched.NewRand(5))
		if err != nil {
			t.Fatal(err)
		}
		e.Add(20_000)
		return e.Hits(), e.Estimate()
	}
	wantHits, wantEst := run(ident)
	for round := 0; round < 5; round++ {
		if hits, est := run(rng.Perm(nVars)); hits != wantHits || est != wantEst {
			t.Errorf("permuted registration: hits=%d estimate=%v, want %d / %v", hits, est, wantHits, wantEst)
		}
	}
}

// TestEpochWrap: when a shard's 32-bit epoch wraps, stamps left by its
// earliest trials would read as current again; the wrap clears them, so
// counts and PRNG position stay identical to a fresh shard's on the same
// seed. (Many seeds: a single run can miss every stale variable.)
func TestEpochWrap(t *testing.T) {
	f, tab := rand30x4()
	est, err := NewEstimator(f, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 64; seed++ {
		fresh := est.Shard(sched.NewRand(seed))
		old := est.Shard(sched.NewRand(seed))
		// Three trials before the wrap, every variable still carrying the
		// stamp (and a stale alternative) of the shard's very first trial.
		old.epoch = math.MaxUint32 - 3
		for v := range old.world {
			old.world[v] = cell{stamp: 1, alt: 1}
		}
		fresh.Add(10)
		old.Add(10)
		if fresh.Hits() != old.Hits() || fresh.rng.Int63() != old.rng.Int63() {
			t.Fatalf("seed %d: wrapping shard diverged from a fresh one (hits %d vs %d)", seed, old.Hits(), fresh.Hits())
		}
		if old.epoch != 10-3 {
			t.Fatalf("epoch = %d after 10 trials across the wrap, want %d", old.epoch, 10-3)
		}
	}
}

// TestPartialRNGContinuationMatchesWholeChunk: a chunk sampled as a
// prefix, then continued on the same PRNG by a NEW shard (what an engine
// lane's kept PRNG does across waves, SampleChunk), equals sampling the
// chunk in one go — a trial leaves no state behind but the PRNG position.
func TestPartialRNGContinuationMatchesWholeChunk(t *testing.T) {
	f, tab := chain16()
	est, err := NewEstimator(f, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	const chunk, prefix = 4096, 1234
	whole := est.Shard(sched.NewRand(sched.ChunkSeed(77, 3)))
	whole.Add(chunk)

	rng := sched.NewRand(sched.ChunkSeed(77, 3))
	head := est.Shard(rng)
	head.Add(prefix)
	tail := est.Shard(rng)
	tail.Add(chunk - prefix)
	if got := head.Hits() + tail.Hits(); got != whole.Hits() {
		t.Errorf("prefix + continuation hits = %d, whole chunk = %d", got, whole.Hits())
	}
}

// TestCompileDedup pins the compile-step dedup against dnf.F.Dedup:
// duplicates (also when their bindings arrive via different variable
// ids) collapse, first occurrences and ClauseCount agree.
func TestCompileDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for round := 0; round < 50; round++ {
		nVars := 3 + rng.Intn(4)
		tab := skewTable(rng, nVars)
		var f dnf.F
		for c := 0; c < 1+rng.Intn(30); c++ {
			var bs []vars.Binding
			for l := 0; l < 1+rng.Intn(2); l++ {
				bs = append(bs, vars.Binding{Var: vars.Var(rng.Intn(nVars)), Alt: int32(rng.Intn(2))})
			}
			if a, err := vars.NewAssignment(bs...); err == nil {
				f = append(f, a)
			}
		}
		if len(f) == 0 {
			continue
		}
		want := f.Dedup()
		k, order := compile(f, tab, true)
		if k.clauses() != len(want) || len(order) != len(want) {
			t.Fatalf("round %d: compile kept %d clauses, dnf.Dedup %d", round, k.clauses(), len(want))
		}
		kept := map[string]bool{}
		for _, c := range order {
			kept[f[c].Key()] = true
		}
		for _, a := range want {
			if !kept[a.Key()] {
				t.Fatalf("round %d: clause %s lost by the compile-step dedup", round, a.Format(tab))
			}
		}
		for p := 1; p < k.clauses(); p++ {
			if k.weight[p] > k.weight[p-1] || (k.weight[p] == k.weight[p-1] && order[p] < order[p-1]) {
				t.Fatalf("round %d: internal order breaks weight-descending / incoming-position at %d", round, p)
			}
		}
	}
}
