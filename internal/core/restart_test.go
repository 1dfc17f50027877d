package core

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/parser"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
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

// restartQuery is the benchmark's sigma-strat plan (repair-key and three
// let definitions under a σ̂ over consecutive hot epochs), with a second σ̂
// argument so the argument join goes through the Exec, and a join above the
// σ̂ with a sibling of it, which every pass rebuilds over the memoized
// sibling. Under restartOpts it restarts six times.
func restartQuery(t *testing.T) algebra.Query {
	t.Helper()
	q, err := parser.Parse(`D := project[Sensor,Epoch,Value](repairkey[Sensor,Epoch @ Conf](Readings));
H := project[Sensor,Epoch](select[Value >= 25](D));
N := project[Sensor, Epoch - 1 as Epoch](H);
join(aselect[p1 >= 0.7 and p2 >= 0.2 over conf[Sensor], conf[Epoch]](project[Sensor, Epoch](join(H, N))), project[Sensor](H))`)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func restartOpts(workers int) Options {
	return Options{Eps0: 0.05, Delta: 0.1, Seed: 3, Strata: 8, MaxRounds: 1 << 12, Workers: workers}
}

// TestRestartWalksPrefixOnce pins the incremental doubling loop: however
// often σ̂ restarts, the σ̂-free prefix (here the repair-key) is evaluated
// once, and so is each σ̂ argument's lineage grouping.
func TestRestartWalksPrefixOnce(t *testing.T) {
	res, err := NewEngine(restartDB(), restartOpts(1)).EvalApprox(restartQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Restarts < 3 || res.Stats.EstimatorTrials == 0 {
		t.Fatalf("fixture: %d restarts, %d trials sampled; want ≥ 3 restarts that sample", res.Stats.Restarts, res.Stats.EstimatorTrials)
	}
	if rk, lin := res.Stats.Ops["repairkey"].Calls, res.Stats.Ops["lineage"].Calls; rk != 1 || lin != 2 {
		t.Errorf("over %d restarts: repairkey ran %d times, lineage %d; want 1 and 2 (one per σ̂ argument)",
			res.Stats.Restarts, rk, lin)
	}
}

// TestRestartCarriedStateAcrossExecutors pins that what a restart carries —
// the memoized prefix, each σ̂'s kept tasks — is executor-blind: results and
// Stats are bit-identical across workers, the pool and a Distributor, and
// in-memory and out-of-core runs. The spilled runs' budget sheds every
// relation not in use, so later passes rehydrate the kept argument join
// and the memoized sibling the join above σ̂ reads.
func TestRestartCarriedStateAcrossExecutors(t *testing.T) {
	q := restartQuery(t)
	var want []string
	var wantStats Stats
	for _, workers := range []int{1, 4} {
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
					if st.Restarts < 3 {
						t.Fatalf("fixture: %d restarts, want ≥ 3", st.Restarts)
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
// evaluation reaches pass cancelAt (counted by its Progress hook), then
// cancels the evaluation's context mid-batch and fails the wave with it.
type cancellingDistributor struct {
	loopbackDistributor
	passes   *int
	cancelAt int
	cancel   context.CancelFunc
	fired    bool
}

func (d *cancellingDistributor) SampleChunks(ctx context.Context, tasks []RemoteTask) ([]RemoteCounts, error) {
	if *d.passes >= d.cancelAt {
		d.cancel()
		d.fired = true
		return nil, ctx.Err()
	}
	return d.loopbackDistributor.SampleChunks(ctx, tasks)
}

// TestRestartCancelPublishesNothingPartial cancels an evaluation in its
// third pass — from the Progress hook, and from inside the pass's
// sampling — and requires context.Canceled, with nothing partial left in
// the engine's shared cache: the next evaluation on that engine, which
// resumes from the cache, is bit-identical to a fresh engine's. The tasks
// are flat, so the cache also holds open chunks' PRNG tails.
func TestRestartCancelPublishesNothingPartial(t *testing.T) {
	q := restartQuery(t)
	base := restartOpts(1)
	base.Strata = 0
	fresh, err := NewEngine(restartDB(), base).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(t, fresh)
	for _, mode := range []string{"progress-hook", "sampling"} {
		ctx, cancel := context.WithCancel(context.Background())
		passes := 0
		opts := base
		opts.Progress = func(p Progress) {
			passes++
			if mode == "progress-hook" && passes == 3 {
				cancel()
			}
		}
		eng := NewEngine(restartDB(), opts)
		eng.SetCache(NewCache(0))
		dist := &cancellingDistributor{passes: &passes, cancelAt: 2, cancel: cancel}
		if mode == "sampling" {
			eng.SetDistributor(dist)
		}
		if _, err := eng.EvalApproxContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", mode, err)
		}
		if mode == "sampling" && (!dist.fired || passes != 2) {
			t.Fatalf("sampling: cancelled=%v after %d passes, want a cancel in pass 3", dist.fired, passes)
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

// TestMaxMemoryChargedOnce pins the memory budget of a restarting σ̂ (the
// TestDriverMatrix strata8-shat case, nine restarts) to one walk of its
// plan, as EvalExact of the same plan is charged: under a limit between
// one and two walks' bytes the evaluation completes, bit-identical and with
// Stats equal to the unlimited run.
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
	if ref.Stats.Restarts < 1 || walk == 0 {
		t.Fatalf("fixture: %d restarts, one walk %d bytes", ref.Stats.Restarts, walk)
	}
	opts.MaxMemory = walk * 3 / 2
	if _, err := NewEngine(db, opts).EvalExact(shat); err != nil {
		t.Fatalf("EvalExact under MaxMemory=%d: %v", opts.MaxMemory, err)
	}
	got, err := NewEngine(db, opts).EvalApprox(shat)
	if err != nil {
		t.Fatalf("EvalApprox over %d restarts under MaxMemory=%d (one walk %d B): %v",
			ref.Stats.Restarts, opts.MaxMemory, walk, err)
	}
	if !reflect.DeepEqual(resultFingerprint(t, got), resultFingerprint(t, ref)) || !reflect.DeepEqual(got.Stats, ref.Stats) {
		t.Errorf("memory-limited run differs from the unlimited one:\n got %+v\nwant %+v", got.Stats, ref.Stats)
	}
}
