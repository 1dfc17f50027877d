package core

import (
	"context"
	"errors"
	"math/bits"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/parser"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// restartDB holds readings of three sensors over twelve epochs, each
// reading hot (30) or cold (20) with a sensor- and epoch-dependent weight.
func restartDB() *urel.Database {
	db := urel.NewDatabase()
	r := rel.NewRelation(rel.NewSchema("Sensor", "Epoch", "Value", "Conf"))
	for s := 0; s < 3; s++ {
		for e := 0; e < 12; e++ {
			p := 0.55 + 0.1*float64((s+e)%4)
			r.Add(rel.Tuple{rel.Int(int64(s)), rel.Int(int64(e)), rel.Int(30), rel.Float(p)})
			r.Add(rel.Tuple{rel.Int(int64(s)), rel.Int(int64(e)), rel.Int(20), rel.Float(1 - p)})
		}
	}
	db.AddComplete("Readings", r)
	return db
}

// restartLets is the benchmark's sigma-strat prefix: repair-key and three
// let definitions over consecutive hot epochs.
const restartLets = `D := project[Sensor,Epoch,Value](repairkey[Sensor,Epoch @ Conf](Readings));
H := project[Sensor,Epoch](select[Value >= 25](D));
N := project[Sensor, Epoch - 1 as Epoch](H);
`

// restartSigma is a σ̂ over the hot-epoch pairs with a second argument, so
// the argument join goes through the Exec. Under restartOpts its rounds
// double l at least three times.
const restartSigma = `aselect[p1 >= 0.7 and p2 >= 0.2 over conf[Sensor], conf[Epoch]](project[Sensor, Epoch](join(H, N)))`

// restartQuery joins restartSigma with a sibling, which the operator above
// the σ̂ reads once.
func restartQuery(t *testing.T) algebra.Query {
	return mustParse(t, restartLets+`join(`+restartSigma+`, project[Sensor](H))`)
}

func mustParse(t *testing.T, src string) algebra.Query {
	t.Helper()
	q, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func restartOpts(workers int) Options {
	return Options{Eps0: 0.05, Delta: 0.1, Seed: 3, Strata: 8, MaxRounds: 1 << 12, Workers: workers}
}

// TestRestartWalksPrefixOnce pins the per-σ̂ doubling loop: however many
// rounds σ̂ runs, the plan is walked once — the repair-key once, each σ̂
// argument's lineage grouping once, and the join above σ̂ once.
func TestRestartWalksPrefixOnce(t *testing.T) {
	res, err := NewEngine(restartDB(), restartOpts(1)).EvalApprox(restartQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FinalRounds < 8 || res.Stats.EstimatorTrials == 0 || res.Stats.Restarts != 0 {
		t.Fatalf("fixture: l = %d after %d re-walks, %d trials sampled; want ≥ 3 doublings that sample, no re-walk",
			res.Stats.FinalRounds, res.Stats.Restarts, res.Stats.EstimatorTrials)
	}
	ops := res.Stats.Ops
	if rk, lin, join := ops["repairkey"].Calls, ops["lineage"].Calls, ops["join"].Calls; rk != 1 || lin != 2 || join != 3 {
		t.Errorf("over l = %d: repairkey ran %d times, lineage %d, join %d; want 1, 2 (one per σ̂ argument) and 3 "+
			"(hot pairs, the argument join, the join above σ̂)", res.Stats.FinalRounds, rk, lin, join)
	}
}

// TestRestartCarriedStateAcrossExecutors pins that what a σ̂'s rounds carry
// — its tasks, open chunks included — is executor-blind: results and Stats
// are bit-identical across workers, the pool and a Distributor, and
// in-memory and out-of-core runs. The spilled runs' budget sheds every
// relation not in use.
func TestRestartCarriedStateAcrossExecutors(t *testing.T) {
	q := restartQuery(t)
	var want []string
	var wantStats Stats
	for _, workers := range []int{1, 4, 8} {
		for _, remote := range []bool{false, true} {
			for _, spill := range []bool{false, true} {
				where := "workers=" + strconv.Itoa(workers) + " remote=" + strconv.FormatBool(remote) + " spill=" + strconv.FormatBool(spill)
				opts := restartOpts(workers)
				if spill {
					opts.MaxMemory, opts.SpillDir = 1, t.TempDir()
				}
				eng := NewEngine(restartDB(), opts)
				if remote {
					eng.SetDistributor(&loopbackDistributor{})
				}
				res, err := eng.EvalApprox(q)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				st := res.Stats
				if spill {
					if st.SpillFiles == 0 {
						t.Errorf("%s: nothing was shed", where)
					}
					st.SpilledBytes, st.SpillFiles = 0, 0
				}
				got := resultFingerprint(t, res)
				if want == nil {
					want, wantStats = got, st
					if st.FinalRounds < 8 {
						t.Fatalf("fixture: l = %d, want ≥ 3 doublings", st.FinalRounds)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: result differs from workers=1 remote=false spill=false", where)
				}
				if !reflect.DeepEqual(st, wantStats) {
					t.Errorf("%s: Stats differ:\n got %+v\nwant %+v", where, st, wantStats)
				}
			}
		}
	}
}

// cancellingDistributor samples like loopbackDistributor until the
// evaluation reaches σ̂ round cancelAt (counted by its Progress hook), then
// cancels the evaluation's context mid-batch and fails the wave with it.
type cancellingDistributor struct {
	loopbackDistributor
	rounds   *int
	cancelAt int
	cancel   context.CancelFunc
	fired    bool
}

func (d *cancellingDistributor) SampleChunks(ctx context.Context, tasks []RemoteTask) ([]RemoteCounts, error) {
	if *d.rounds >= d.cancelAt {
		d.cancel()
		d.fired = true
		return nil, ctx.Err()
	}
	return d.loopbackDistributor.SampleChunks(ctx, tasks)
}

// TestRestartCancelPublishesNothingPartial cancels an evaluation in its
// σ̂'s third round — from the Progress hook, and from inside the round's
// sampling — and requires context.Canceled, with nothing partial left in
// the engine's shared cache: the next evaluation on that engine, which
// resumes from the cache the conf batch that ran before the σ̂ published,
// is bit-identical to a fresh engine's. The tasks are flat, so the cache
// also holds open chunks, which the next evaluation continues.
func TestRestartCancelPublishesNothingPartial(t *testing.T) {
	q := mustParse(t, restartLets+`join(conf as PH (project[Sensor](H)), `+restartSigma+`)`)
	base := restartOpts(1)
	base.Strata = 0
	fresh, err := NewEngine(restartDB(), base).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(t, fresh)
	for _, mode := range []string{"progress-hook", "sampling"} {
		ctx, cancel := context.WithCancel(context.Background())
		rounds := 0
		opts := base
		opts.Progress = func(p Progress) {
			rounds++
			if mode == "progress-hook" && rounds == 3 {
				cancel()
			}
		}
		eng := NewEngine(restartDB(), opts)
		eng.SetCache(NewCache(0))
		dist := &cancellingDistributor{rounds: &rounds, cancelAt: 2, cancel: cancel}
		if mode == "sampling" {
			eng.SetDistributor(dist)
		}
		if _, err := eng.EvalApproxContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", mode, err)
		}
		if mode == "sampling" && (!dist.fired || rounds != 2) {
			t.Fatalf("sampling: cancelled=%v after %d rounds, want a cancel in round 3", dist.fired, rounds)
		}
		eng.SetDistributor(nil)
		res, err := eng.EvalApprox(q)
		if err != nil {
			t.Fatalf("%s: evaluation after the cancelled one: %v", mode, err)
		}
		if res.Stats.CacheHits == 0 {
			t.Errorf("%s: the evaluation after the cancelled one resumed nothing from the cache", mode)
		}
		if got := resultFingerprint(t, res); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: evaluation after the cancelled one differs from a fresh engine's", mode)
		}
		cancel()
	}
}

// TestMaxMemoryChargedOnce pins the memory budget of a σ̂ that doubles its
// rounds (the TestDriverMatrix strata8-shat case) to one walk of its plan,
// as EvalExact of the same plan is charged: under a limit between one and
// two walks' bytes the evaluation completes, bit-identical and with Stats
// equal to the unlimited run.
func TestMaxMemoryChargedOnce(t *testing.T) {
	db := matrixDB()
	shat := algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.26),
	}
	opts := Options{Eps0: 0.05, Delta: 0.1, Strata: 8, MaxRounds: 1 << 13, Seed: 11}
	ref, err := NewEngine(db, opts).EvalApprox(shat)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewEngine(db, opts).EvalExact(shat)
	if err != nil {
		t.Fatal(err)
	}
	var walk int64
	for _, s := range exact.Ops {
		walk += s.Bytes
	}
	if ref.Stats.FinalRounds < 4 || walk == 0 {
		t.Fatalf("fixture: l = %d, one walk %d bytes; want ≥ 2 doublings", ref.Stats.FinalRounds, walk)
	}
	opts.MaxMemory = walk * 3 / 2
	if _, err := NewEngine(db, opts).EvalExact(shat); err != nil {
		t.Fatalf("EvalExact under MaxMemory=%d: %v", opts.MaxMemory, err)
	}
	got, err := NewEngine(db, opts).EvalApprox(shat)
	if err != nil {
		t.Fatalf("EvalApprox to l = %d under MaxMemory=%d (one walk %d B): %v",
			ref.Stats.FinalRounds, opts.MaxMemory, walk, err)
	}
	if !reflect.DeepEqual(resultFingerprint(t, got), resultFingerprint(t, ref)) || !reflect.DeepEqual(got.Stats, ref.Stats) {
		t.Errorf("memory-limited run differs from the unlimited one:\n got %+v\nwant %+v", got.Stats, ref.Stats)
	}
}

// TestCappedSigmaRewalksBounded pins the re-walk bound: a σ̂ whose decision
// sits on or near its threshold runs to MaxRounds with a bound above δ,
// which the root check counts, while a wide-margin σ̂ beside it closes below
// the cap. Each re-walk starts every σ̂ at twice the largest l the walk
// before reached, so the re-walks end within log₂ MaxRounds instead of
// pushing the wide σ̂ towards the cap one doubling at a time.
func TestCappedSigmaRewalksBounded(t *testing.T) {
	db := urel.NewDatabase()
	for _, c := range [][2]string{{"R", "A"}, {"S", "B"}} {
		x := db.Vars.Add(c[0]+"x", []float64{0.5, 0.5}, nil)
		y := db.Vars.Add(c[0]+"y", []float64{0.5, 0.5}, nil)
		r := urel.NewRelation(rel.NewSchema(c[1]))
		// p = 1 − 0.5·0.5 = 0.75.
		r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(0)})
		r.Add(vars.MustAssignment(vars.Binding{Var: y, Alt: 0}), rel.Tuple{rel.Int(0)})
		db.AddURelation(c[0], r, false)
	}
	const maxRounds = 1 << 10
	// 0.75 is a singularity; 0.72 is a margin above ε₀ whose bound the
	// cap leaves above δ.
	for _, threshold := range []string{"0.75", "0.72"} {
		q := mustParse(t, `join(project[A](aselect[p1 >= `+threshold+` over conf[A]](R)), project[B](aselect[p1 >= 0.2 over conf[B]](S)))`)
		res, err := NewEngine(db, Options{Eps0: 0.02, Delta: 0.1, Seed: 5, MaxRounds: maxRounds}).EvalApprox(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Restarts == 0 || res.Stats.FinalRounds != maxRounds {
			t.Fatalf("threshold %s, fixture: %d re-walks, final l = %d; want the tight σ̂ capped at %d and a re-walk",
				threshold, res.Stats.Restarts, res.Stats.FinalRounds, maxRounds)
		}
		if limit := bits.Len(maxRounds) - 1; res.Stats.Restarts > limit {
			t.Errorf("threshold %s: %d re-walks under MaxRounds %d; want at most log₂ = %d", threshold, res.Stats.Restarts, maxRounds, limit)
		}
	}
}
