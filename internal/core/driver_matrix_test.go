package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/karpluby"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// loopbackDistributor is an in-process core.Distributor: it rebuilds every
// RemoteTask the way a shard does — the stratification plan from the
// shipped clause set (one stratum when MaxStrata is 0), each chunk run from
// its seed (karpluby.SampleChunk) — and returns the summed counts. No PRNG
// crosses it, exactly as none crosses the wire.
type loopbackDistributor struct{ calls int }

func (d *loopbackDistributor) SampleChunks(_ context.Context, tasks []RemoteTask) ([]RemoteCounts, error) {
	d.calls++
	out := make([]RemoteCounts, len(tasks))
	for i, t := range tasks {
		strata := t.MaxStrata
		if strata == 0 {
			strata = 1
		}
		est, err := karpluby.NewStratified(t.Clauses, t.Vars, karpluby.PlanStrata(t.Clauses, t.Vars, strata))
		if err != nil {
			return nil, err
		}
		for _, c := range t.Chunks {
			hits, _ := est.SampleChunk(t.Stratum, t.Seed, c, nil)
			out[i].Hits += hits
			out[i].Trials += c.N
		}
	}
	return out, nil
}

// matrixDB holds three tuples, each with its own 14-clause chain over
// skewed variables: one hard component per tuple (too large for the exact
// factoring limits), so both the flat and the stratified sampler run.
func matrixDB() *urel.Database {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	for id := 0; id < 3; id++ {
		vs := make([]vars.Var, 15)
		for i := range vs {
			p := math.Pow(0.5, float64(1+(i+id)%8))
			vs[i] = db.Vars.Add("m"+strconv.Itoa(id)+"_"+strconv.Itoa(i), []float64{p, 1 - p}, nil)
		}
		for i := 0; i < 14; i++ {
			r.Add(vars.MustAssignment(
				vars.Binding{Var: vs[i], Alt: 0},
				vars.Binding{Var: vs[i+1], Alt: 0},
			), rel.Tuple{rel.Int(int64(id))})
		}
	}
	db.AddURelation("R", r, false)
	return db
}

// matrixGolden pins TestDriverMatrix's trial accounting per
// "case/remote=executor/phase" (workers 1; the test requires workers 4 to
// report the same Stats). These counters are what a change to the doubling
// loop or the driver must not move; re-record them (empty the map, run,
// paste) only for a change that moves PRNG consumption on purpose.
var matrixGolden = map[string]string{
	"flat-conf/remote=false/cold":     "sampled=150987 reused=0 cache-hits=0 restarts=0 strata=0 early-stops=0",
	"flat-conf/remote=false/warm":     "sampled=0 reused=150987 cache-hits=3 restarts=0 strata=0 early-stops=0",
	"flat-conf/remote=false/grown":    "sampled=1381356 reused=150987 cache-hits=3 restarts=0 strata=0 early-stops=0",
	"flat-conf/remote=true/cold":      "sampled=150987 reused=0 cache-hits=0 restarts=0 strata=0 early-stops=0",
	"flat-conf/remote=true/warm":      "sampled=0 reused=150987 cache-hits=3 restarts=0 strata=0 early-stops=0",
	"flat-conf/remote=true/grown":     "sampled=1381356 reused=150987 cache-hits=3 restarts=0 strata=0 early-stops=0",
	"flat-shat/remote=false/cold":     "sampled=60928 reused=0 cache-hits=0 restarts=0 strata=0 early-stops=0",
	"flat-shat/remote=false/warm":     "sampled=60928 reused=0 cache-hits=0 restarts=0 strata=0 early-stops=0",
	"flat-shat/remote=false/grown":    "sampled=125440 reused=0 cache-hits=0 restarts=0 strata=0 early-stops=0",
	"flat-shat/remote=true/cold":      "sampled=60928 reused=0 cache-hits=0 restarts=0 strata=0 early-stops=0",
	"flat-shat/remote=true/warm":      "sampled=60928 reused=0 cache-hits=0 restarts=0 strata=0 early-stops=0",
	"flat-shat/remote=true/grown":     "sampled=125440 reused=0 cache-hits=0 restarts=0 strata=0 early-stops=0",
	"strata8-conf/remote=false/cold":  "sampled=61452 reused=0 cache-hits=0 restarts=0 strata=15 early-stops=3",
	"strata8-conf/remote=false/warm":  "sampled=0 reused=61452 cache-hits=3 restarts=0 strata=15 early-stops=3",
	"strata8-conf/remote=false/grown": "sampled=12288 reused=61452 cache-hits=3 restarts=0 strata=15 early-stops=3",
	"strata8-conf/remote=true/cold":   "sampled=61452 reused=0 cache-hits=0 restarts=0 strata=15 early-stops=3",
	"strata8-conf/remote=true/warm":   "sampled=0 reused=61452 cache-hits=3 restarts=0 strata=15 early-stops=3",
	"strata8-conf/remote=true/grown":  "sampled=12288 reused=61452 cache-hits=3 restarts=0 strata=15 early-stops=3",
	"strata8-shat/remote=false/cold":  "sampled=4480 reused=0 cache-hits=0 restarts=0 strata=15 early-stops=0",
	"strata8-shat/remote=false/warm":  "sampled=0 reused=4480 cache-hits=3 restarts=0 strata=15 early-stops=0",
	"strata8-shat/remote=false/grown": "sampled=4480 reused=4480 cache-hits=3 restarts=0 strata=15 early-stops=0",
	"strata8-shat/remote=true/cold":   "sampled=4480 reused=0 cache-hits=0 restarts=0 strata=15 early-stops=0",
	"strata8-shat/remote=true/warm":   "sampled=0 reused=4480 cache-hits=3 restarts=0 strata=15 early-stops=0",
	"strata8-shat/remote=true/grown":  "sampled=4480 reused=4480 cache-hits=3 restarts=0 strata=15 early-stops=0",
}

type matrixCase struct {
	name      string
	q         algebra.Query
	opts      Options
	maxTrials int64 // trips inside the first estimation batch
}

// matrixCases are the driver's four paths — conf and σ̂, flat and
// stratified — over matrixDB.
func matrixCases() []matrixCase {
	conf := algebra.Conf{In: algebra.Base{Name: "R"}}
	shat := algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.26),
	}
	return []matrixCase{
		{"flat-conf", conf, Options{Eps0: 0.05, Delta: 0.1}, 10000},
		{"flat-shat", shat, Options{Eps0: 0.05, Delta: 0.1, MaxRounds: 1 << 13}, 10},
		{"strata8-conf", conf, Options{Eps0: 0.05, Delta: 0.1, Strata: 8}, 10000},
		{"strata8-shat", shat, Options{Eps0: 0.05, Delta: 0.1, Strata: 8, MaxRounds: 1 << 13}, 10},
	}
}

// grownOpts asks for a tighter δ than o: larger conf budgets, more σ̂ rounds —
// the prefix-resume case of the shared cache.
func grownOpts(o Options) Options {
	o.Delta, o.ConfEps = 0.001, 0.025
	return o
}

// TestDriverMatrix pins what the estimation driver owes its callers,
// whichever executor samples: one result per (query, options, cache
// history) — bit-identical on the worker pool and through a Distributor,
// for any worker count — Stats that do not depend on the worker count and
// match matrixGolden, and a tripped trial limit that surfaces as a
// *LimitError with nothing published to the cache.
func TestDriverMatrix(t *testing.T) {
	db := matrixDB()
	for _, tc := range matrixCases() {
		t.Run(tc.name, func(t *testing.T) {
			phases := []struct {
				name string
				opts Options
			}{{"cold", tc.opts}, {"warm", tc.opts}, {"grown", grownOpts(tc.opts)}}
			want := make([][]string, len(phases))
			poolStats := make([]Stats, len(phases))
			for _, remote := range []bool{false, true} {
				var wantStats []Stats
				for _, workers := range []int{1, 4} {
					cache := NewCache(0)
					for pi, ph := range phases {
						opts := ph.opts
						opts.Seed, opts.Workers = 11, workers
						eng := NewEngine(db, opts)
						eng.SetCache(cache)
						var dist *loopbackDistributor
						if remote {
							dist = &loopbackDistributor{}
							eng.SetDistributor(dist)
						}
						res, err := eng.EvalApprox(tc.q)
						if err != nil {
							t.Fatalf("remote=%v workers=%d %s: %v", remote, workers, ph.name, err)
						}
						where := "remote=" + strconv.FormatBool(remote) + " workers=" + strconv.Itoa(workers) + " " + ph.name
						if pi == 0 && res.Stats.EstimatorTrials == 0 {
							t.Fatalf("%s: sampled nothing; fixture too easy", where)
						}
						if remote && pi == 0 && dist.calls == 0 {
							t.Fatalf("%s: the distributor was never called", where)
						}
						if got := resultFingerprint(t, res); want[pi] == nil {
							want[pi] = got
						} else if !reflect.DeepEqual(got, want[pi]) {
							t.Errorf("%s: result differs from the pool, workers=1 run:\n got %v\nwant %v", where, got, want[pi])
						}
						if len(wantStats) <= pi {
							wantStats = append(wantStats, res.Stats)
						} else if !reflect.DeepEqual(res.Stats, wantStats[pi]) {
							t.Errorf("%s: Stats depend on the worker count:\n got %+v\nwant %+v", where, res.Stats, wantStats[pi])
						}
						if !remote {
							poolStats[pi] = res.Stats
						} else if !reflect.DeepEqual(res.Stats, poolStats[pi]) {
							// Both executors draw the same chunk runs.
							t.Errorf("%s: Stats differ from the pool's:\n got %+v\nwant %+v", where, res.Stats, poolStats[pi])
						}
					}
					if workers == 1 {
						cold, warm, grown := wantStats[0], wantStats[1], wantStats[2]
						for pi, st := range wantStats {
							key := tc.name + "/remote=" + strconv.FormatBool(remote) + "/" + phases[pi].name
							got := fmt.Sprintf("sampled=%d reused=%d cache-hits=%d restarts=%d strata=%d early-stops=%d",
								st.EstimatorTrials, st.ReusedTrials, st.CacheHits, st.Restarts, st.Strata, st.EarlyStops)
							if got != matrixGolden[key] {
								t.Errorf("%q: %q, // differs from golden %q", key, got, matrixGolden[key])
							}
						}
						if _, shat := tc.q.(algebra.ApproxSelect); shat && tc.opts.Strata == 0 {
							// A flat σ̂ task resumes only snapshots within its
							// budget and continues in memory from l = 1, so a
							// warm or grown run is a cold one: the same draws,
							// the same decisions, nothing reused.
							if !reflect.DeepEqual(want[1], want[0]) || warm.EstimatorTrials != cold.EstimatorTrials || warm.ReusedTrials != 0 {
								t.Errorf("remote=%v: warm run sampled %d trials (cold %d), reused %d, results equal %v; want a cold run",
									remote, warm.EstimatorTrials, cold.EstimatorTrials, warm.ReusedTrials, reflect.DeepEqual(want[1], want[0]))
							}
							if grown.ReusedTrials != 0 {
								t.Errorf("remote=%v: grown run reused %d trials; want a cold run", remote, grown.ReusedTrials)
							}
						} else {
							if warm.EstimatorTrials >= cold.EstimatorTrials || warm.ReusedTrials == 0 {
								t.Errorf("remote=%v: warm run sampled %d trials (cold %d), reused %d", remote, warm.EstimatorTrials, cold.EstimatorTrials, warm.ReusedTrials)
							}
							if grown.EstimatorTrials == 0 || grown.ReusedTrials == 0 {
								t.Errorf("remote=%v: grown run sampled %d trials, reused %d; want both positive", remote, grown.EstimatorTrials, grown.ReusedTrials)
							}
						}
					}
				}
			}
			for _, remote := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					opts := tc.opts
					opts.Seed, opts.Workers, opts.MaxTrials = 11, workers, tc.maxTrials
					eng := NewEngine(db, opts)
					cache := NewCache(0)
					eng.SetCache(cache)
					if remote {
						eng.SetDistributor(&loopbackDistributor{})
					}
					_, err := eng.EvalApprox(tc.q)
					var le *LimitError
					if !errors.As(err, &le) || le.Resource != "trials" {
						t.Errorf("remote=%v workers=%d: MaxTrials=%d gave %v, want a trials *LimitError", remote, workers, tc.maxTrials, err)
					}
					if n := cache.len(); n != 0 {
						t.Errorf("remote=%v workers=%d: aborted evaluation published %d cache entries", remote, workers, n)
					}
				}
			}
		})
	}
}

// TestWarmRowsMatchCold pins what a warm cache promises about rows. A run
// with the same query and options as the one that filled the cache returns
// a cold run's rows in every matrix case; a looser run after a tighter
// (grown) one does so for flat tasks only, which resume no snapshot past
// their budget. A stratified task's budget is a cap over its lanes and
// each lane resumes whatever prefix is cached, so strata8-conf and
// strata8-shat then reuse the tighter run's trials, sample none, and
// return rows that differ from a cold run's.
func TestWarmRowsMatchCold(t *testing.T) {
	db := matrixDB()
	for _, tc := range matrixCases() {
		for _, remote := range []bool{false, true} {
			eval := func(cache *Cache, opts Options) []string {
				opts.Seed, opts.Workers = 11, 1
				eng := NewEngine(db, opts)
				eng.SetCache(cache)
				if remote {
					eng.SetDistributor(&loopbackDistributor{})
				}
				res, err := eng.EvalApprox(tc.q)
				if err != nil {
					t.Fatalf("%s remote=%v: %v", tc.name, remote, err)
				}
				return resultFingerprint(t, res)
			}
			cold := eval(NewCache(0), tc.opts)
			warm := NewCache(0)
			eval(warm, tc.opts)
			if got := eval(warm, tc.opts); !reflect.DeepEqual(got, cold) {
				t.Errorf("%s remote=%v: same-options warm rows %v, cold %v", tc.name, remote, got, cold)
			}
			if tc.opts.Strata > 0 {
				continue // resumes the tighter run's trials: see above
			}
			tight := NewCache(0)
			eval(tight, grownOpts(tc.opts))
			if got := eval(tight, tc.opts); !reflect.DeepEqual(got, cold) {
				t.Errorf("%s remote=%v: rows after a tighter run %v, cold %v", tc.name, remote, got, cold)
			}
		}
	}
}
