package pdb_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"

	"repro/pdb"
)

// evalFingerprint hashes everything an approximate evaluation reports that
// is deterministic under one seed: rows in result order with exact float
// bit patterns, per-row error bounds and singular flags, and the trial /
// restart / decision counters.
func evalFingerprint(res *pdb.Result) string {
	var b strings.Builder
	cols := res.Columns()
	for row := range res.Rows() {
		for _, c := range cols {
			switch v := row.Value(c).(type) {
			case float64:
				fmt.Fprintf(&b, "|%x", math.Float64bits(v))
			default:
				fmt.Fprintf(&b, "|%v", v)
			}
		}
		fmt.Fprintf(&b, "|%s|%x|%v\n", row.Condition(), math.Float64bits(row.ErrorBound()), row.Singular())
	}
	st := res.Stats()
	fmt.Fprintf(&b, "trials=%d restarts=%d decisions=%d", st.SampledTrials, st.Restarts, st.Decisions)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}

// corpusGolden holds evalFingerprint of every corpus scenario (500 rows,
// generator seed 11, ε = 0.1) per "scenario/seed/strata". Estimates are a
// function of the seed alone, so a refactor of the evaluator that leaves
// the urel.Exec call sequence and PRNG consumption untouched must
// reproduce them bit for bit, for any worker count. A change that moves
// PRNG consumption on purpose re-records them (empty the map, run the
// test, paste the printed lines): last done when variables became 64-bit
// identities, which moved content keys (hence seeds) and the kernel's
// variable order.
var corpusGolden = map[string]string{
	"sensor-dedup/1/0":       "7728175e114d155a",
	"sensor-dedup/1/8":       "7728175e114d155a",
	"sensor-dedup/7/0":       "7728175e114d155a",
	"sensor-dedup/7/8":       "7728175e114d155a",
	"sensor-dedup/42/0":      "7728175e114d155a",
	"sensor-dedup/42/8":      "7728175e114d155a",
	"entity-resolution/1/0":  "535a37a9b6fd3b3b",
	"entity-resolution/1/8":  "061d23c3c56ab325",
	"entity-resolution/7/0":  "934c7bcd993bd65a",
	"entity-resolution/7/8":  "061d23c3c56ab325",
	"entity-resolution/42/0": "82741f3e42c45bdd",
	"entity-resolution/42/8": "061d23c3c56ab325",
	"repair-whatif/1/0":      "60f35ae128a1a09e",
	"repair-whatif/1/8":      "60f35ae128a1a09e",
	"repair-whatif/7/0":      "60f35ae128a1a09e",
	"repair-whatif/7/8":      "60f35ae128a1a09e",
	"repair-whatif/42/0":     "60f35ae128a1a09e",
	"repair-whatif/42/8":     "60f35ae128a1a09e",
}

// TestCorpusFingerprintGolden pins approximate evaluation of the workload
// corpus to the recorded fingerprints across seeds, worker counts and the
// flat / stratified estimation paths.
func TestCorpusFingerprintGolden(t *testing.T) {
	ctx := context.Background()
	for _, sc := range workload.Scenarios() {
		paths, err := sc.Generate(t.TempDir(), 500, 11)
		if err != nil {
			t.Fatal(err)
		}
		db, err := pdb.Open(paths)
		if err != nil {
			t.Fatal(err)
		}
		q, err := db.Prepare(sc.Query)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7, 42} {
			for _, strata := range []int{0, 8} {
				key := fmt.Sprintf("%s/%d/%d", sc.Name, seed, strata)
				for _, workers := range []int{1, 4} {
					opts := []pdb.Option{pdb.WithSeed(seed), pdb.WithWorkers(workers), pdb.WithEpsilon(0.1)}
					if strata > 0 {
						opts = append(opts, pdb.WithStrata(strata))
					}
					res, err := q.Eval(ctx, opts...)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					if got := evalFingerprint(res); got != corpusGolden[key] {
						t.Errorf("%q: %q, // workers=%d: fingerprint differs from golden %q",
							key, got, workers, corpusGolden[key])
					}
				}
			}
		}
	}
}

// sigmaSampled prepares a variant of the benchmark's sigma-strat program at
// threshold tau whose lineage still samples. On the benchmark's data
// (sensor-dedup, 70 rows, corpus seed 1) every σ̂ term of that program is
// exact — each sensor has two consecutive epochs whose every reading is
// hot, so its lineage is certain. Here a hot reading must also be well
// calibrated (Conf ≥ 0.35), over 100 rows of corpus seed 6: no pair of
// epochs is hot in every world, and one sensor's lineage is a 12-clause
// task.
func sigmaSampled(t *testing.T, tau float64) *pdb.Query {
	t.Helper()
	sc, err := workload.ScenarioByName("sensor-dedup")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := sc.Generate(t.TempDir(), 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	db, err := pdb.Open(paths)
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(`D := project[Sensor,Epoch,Value,Conf](repairkey[Sensor,Epoch @ Conf](Readings)); ` +
		`H := project[Sensor,Epoch](select[Value >= 25 and Conf >= 0.35](D)); N := project[Sensor, Epoch - 1 as Epoch](H); ` +
		fmt.Sprintf(`aselect[p1 >= %g over conf[Sensor]](project[Sensor](join(H, N)))`, tau))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSigmaStratDrawsEachTrialOnce pins Figure 3 per σ̂ on a sigma-strat
// program that samples (sigmaSampled): of its two decisions one is exact and the other reads one
// 12-clause task, open until the last round, which continues in memory
// from round to round — so the evaluation samples exactly that task's
// final budget of l·12 trials, walks the plan once, and reuses nothing.
func TestSigmaStratDrawsEachTrialOnce(t *testing.T) {
	res, err := sigmaSampled(t, 0.3).Eval(context.Background(), pdb.WithSeed(3), pdb.WithWorkers(1),
		pdb.WithEpsilon(0.1), pdb.WithDelta(0.1), pdb.WithStrata(8))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Decisions != 2 || st.FinalRounds < 8 {
		t.Fatalf("fixture: %d decisions, l = %d; want 2 decisions and ≥ 3 doublings", st.Decisions, st.FinalRounds)
	}
	if st.Restarts != 0 {
		t.Errorf("%d re-walks, want none", st.Restarts)
	}
	if want := 12 * st.FinalRounds; st.SampledTrials != want || st.ReusedTrials != 0 {
		t.Errorf("sampled %d trials and reused %d, want the open task's final budget %d and none",
			st.SampledTrials, st.ReusedTrials, want)
	}
}

// TestSigmaMaxMemoryChargedOnce pins WithMaxMemory on a σ̂ that doubles its
// rounds (a sigma-strat program that samples, sigmaSampled): each relation is charged
// once, as under EvalExact of the same program, so a limit between one and
// two walks' bytes completes bit-identical to the unlimited run.
func TestSigmaMaxMemoryChargedOnce(t *testing.T) {
	ctx := context.Background()
	q := sigmaSampled(t, 0.5)
	opts := []pdb.Option{pdb.WithSeed(3), pdb.WithWorkers(1), pdb.WithEpsilon(0.1), pdb.WithDelta(0.1), pdb.WithStrata(8)}
	ref, err := q.Eval(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := q.EvalExact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var walk int64
	for _, s := range exact.Stats().Ops {
		walk += s.Bytes
	}
	if ref.Stats().FinalRounds < 4 || walk == 0 {
		t.Fatalf("fixture: l = %d, one walk %d bytes; want ≥ 2 doublings", ref.Stats().FinalRounds, walk)
	}
	got, err := q.Eval(ctx, append(opts, pdb.WithMaxMemory(walk*3/2))...)
	if err != nil {
		t.Fatalf("Eval to l = %d under WithMaxMemory(%d), one walk %d B: %v", ref.Stats().FinalRounds, walk*3/2, walk, err)
	}
	if evalFingerprint(got) != evalFingerprint(ref) {
		t.Error("memory-limited run differs from the unlimited one")
	}
}
