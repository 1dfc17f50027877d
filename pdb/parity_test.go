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
// test, paste the printed lines): last done for the compiled lazy
// Karp–Luby kernel and the PCG chunk streams.
var corpusGolden = map[string]string{
	"sensor-dedup/1/0":       "7a1852b48ade3386",
	"sensor-dedup/1/8":       "7728175e114d155a",
	"sensor-dedup/7/0":       "e54bd0fd000a2064",
	"sensor-dedup/7/8":       "7728175e114d155a",
	"sensor-dedup/42/0":      "de2baf31fd4ae655",
	"sensor-dedup/42/8":      "7728175e114d155a",
	"entity-resolution/1/0":  "0f40344d8eac50dd",
	"entity-resolution/1/8":  "061d23c3c56ab325",
	"entity-resolution/7/0":  "8184dfecaa14c03d",
	"entity-resolution/7/8":  "061d23c3c56ab325",
	"entity-resolution/42/0": "c7b14213d8bab75a",
	"entity-resolution/42/8": "061d23c3c56ab325",
	"repair-whatif/1/0":      "ef07a695590c62c3",
	"repair-whatif/1/8":      "51b78b4d95d0399d",
	"repair-whatif/7/0":      "ef07a695590c62c3",
	"repair-whatif/7/8":      "51b78b4d95d0399d",
	"repair-whatif/42/0":     "ef07a695590c62c3",
	"repair-whatif/42/8":     "51b78b4d95d0399d",
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

// TestSigmaMaxMemoryChargedOnce pins WithMaxMemory on a restarting σ̂ (the
// benchmark's sigma-strat program): each relation is charged once, as under
// EvalExact of the same program, so a limit between one and two walks'
// bytes completes bit-identical to the unlimited run instead of tripping
// on the restarts.
func TestSigmaMaxMemoryChargedOnce(t *testing.T) {
	ctx := context.Background()
	var paths map[string]string
	for _, sc := range workload.Scenarios() {
		if sc.Name == "sensor-dedup" {
			var err error
			if paths, err = sc.Generate(t.TempDir(), 70, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	db, err := pdb.Open(paths)
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(`D := project[Sensor,Epoch,Value](repairkey[Sensor,Epoch @ Conf](Readings)); ` +
		`H := project[Sensor,Epoch](select[Value >= 25](D)); N := project[Sensor, Epoch - 1 as Epoch](H); ` +
		`aselect[p1 >= 0.5 over conf[Sensor]](project[Sensor](join(H, N)))`)
	if err != nil {
		t.Fatal(err)
	}
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
	if ref.Stats().Restarts < 1 || walk == 0 {
		t.Fatalf("fixture: %d restarts, one walk %d bytes", ref.Stats().Restarts, walk)
	}
	got, err := q.Eval(ctx, append(opts, pdb.WithMaxMemory(walk*3/2))...)
	if err != nil {
		t.Fatalf("Eval over %d restarts under WithMaxMemory(%d), one walk %d B: %v", ref.Stats().Restarts, walk*3/2, walk, err)
	}
	if evalFingerprint(got) != evalFingerprint(ref) {
		t.Error("memory-limited run differs from the unlimited one")
	}
}
