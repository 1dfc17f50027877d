package pdb_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/pdb"
)

// engineDB builds a tuple-independent database with multi-clause lineage
// after projection: Obs(Sensor, Reading) rows collapse per sensor, so each
// sensor's confidence needs the Karp–Luby estimator.
func engineDB(t *testing.T) *pdb.DB {
	t.Helper()
	rows := [][]any{}
	probs := []float64{}
	for s := 0; s < 4; s++ {
		for r := 0; r < 4; r++ {
			rows = append(rows, []any{fmt.Sprintf("s%d", s), r})
			probs = append(probs, 0.3)
		}
	}
	db, err := pdb.NewBuilder().
		Independent("Obs", []string{"Sensor", "Reading"}, rows, probs).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const sensorConfProgram = `conf as P (project[Sensor](Obs));`

// fingerprintRows captures a result's rows with exact float bit patterns.
func fingerprintRows(res *pdb.Result) []string {
	var out []string
	for row := range res.Rows() {
		out = append(out, fmt.Sprintf("%s|%x|%x|%v",
			row.Str("Sensor"), math.Float64bits(row.Float("P")),
			math.Float64bits(row.ErrorBound()), row.Singular()))
	}
	return out
}

// TestEngineCrossQueryReuse is the public-API acceptance contract: a
// repeated identical query against one pdb.Engine reports ReusedTrials
// and CacheHits > 0 while its rows stay bit-identical to a cold run, for
// workers 1, 4, and 8; and a *different* program with the same lineage
// content hits the same cache entries.
func TestEngineCrossQueryReuse(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4, 8} {
		db := engineDB(t)
		opts := []pdb.Option{pdb.WithSeed(9), pdb.WithWorkers(workers), pdb.WithConfBudget(0.05, 0.05)}

		coldQ, err := db.Prepare(sensorConfProgram)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldQ.Eval(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}

		eng, err := db.Engine()
		if err != nil {
			t.Fatal(err)
		}
		q, err := eng.Prepare(sensorConfProgram)
		if err != nil {
			t.Fatal(err)
		}
		first, err := q.Eval(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		second, err := q.Eval(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if second.Stats().ReusedTrials == 0 || second.Stats().CacheHits == 0 {
			t.Errorf("workers=%d: repeated query reused=%d hits=%d, want both > 0",
				workers, second.Stats().ReusedTrials, second.Stats().CacheHits)
		}
		if second.Stats().SampledTrials != 0 {
			t.Errorf("workers=%d: repeated fixed-budget query sampled %d trials, want 0 (exact replay)",
				workers, second.Stats().SampledTrials)
		}
		want := fingerprintRows(cold)
		for name, res := range map[string]*pdb.Result{"warm-1st": first, "warm-2nd": second} {
			got := fingerprintRows(res)
			if len(got) != len(want) {
				t.Fatalf("workers=%d %s: %d rows, want %d", workers, name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("workers=%d %s row %d: %s != cold %s", workers, name, i, got[i], want[i])
				}
			}
		}

		// A differently-written program with the same lineage content
		// (redundant selection that keeps every row) shares the cache.
		q2, err := eng.Prepare(`conf as P (project[Sensor](select[Reading >= 0](Obs)));`)
		if err != nil {
			t.Fatal(err)
		}
		other, err := q2.Eval(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if other.Stats().CacheHits == 0 || other.Stats().SampledTrials != 0 {
			t.Errorf("workers=%d: lineage-sharing query hits=%d sampled=%d, want hits>0 sampled=0",
				workers, other.Stats().CacheHits, other.Stats().SampledTrials)
		}
		got := fingerprintRows(other)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d cross-query row %d: %s != cold %s", workers, i, got[i], want[i])
			}
		}

		// Engine statistics aggregate across all of the above.
		es := eng.Stats()
		if es.Evals != 3 || es.CacheHits == 0 || es.ReusedTrials == 0 {
			t.Errorf("workers=%d: engine stats %+v, want 3 evals with hits and reuse", workers, es)
		}
	}
}

// TestEngineOptionValidation covers the engine constructor's option
// errors.
func TestEngineOptionValidation(t *testing.T) {
	db := engineDB(t)
	if _, err := db.Engine(pdb.WithEngineCacheSize(0)); err == nil {
		t.Error("WithEngineCacheSize(0) accepted")
	} else {
		var oe *pdb.OptionError
		if !errors.As(err, &oe) || oe.Option != "WithEngineCacheSize" {
			t.Errorf("unexpected error %v", err)
		}
	}
	if _, err := db.Engine(pdb.WithEngineCacheSize(16)); err != nil {
		t.Errorf("valid cache size rejected: %v", err)
	}
}

// TestLimitErrors covers the typed limit failures end to end through the
// public API: trial and memory limits abort with *pdb.LimitError naming
// the resource, invalid limit values are rejected up front, and a
// limit-aborted engine keeps serving.
func TestLimitErrors(t *testing.T) {
	ctx := context.Background()
	db := engineDB(t)
	eng, err := db.Engine()
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.Prepare(sensorConfProgram)
	if err != nil {
		t.Fatal(err)
	}

	_, err = q.Eval(ctx, pdb.WithMaxTrials(100), pdb.WithConfBudget(0.01, 0.01))
	var le *pdb.LimitError
	if !errors.As(err, &le) || le.Resource != "trials" {
		t.Fatalf("tight trial limit: err=%v, want *LimitError{trials}", err)
	}
	if le.Limit != 100 || le.Used <= le.Limit {
		t.Errorf("trial limit error fields: %+v", le)
	}

	big, err := db.Prepare(`conf as P (product(project[Sensor as A](Obs), project[Sensor as B, Reading](Obs)));`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = big.Eval(ctx, pdb.WithMaxMemory(2048))
	if !errors.As(err, &le) || le.Resource != "memory" {
		t.Fatalf("tight memory limit: err=%v, want *LimitError{memory}", err)
	}

	// The memory limit guards the exact path too (a service must not be
	// OOM-able through {"exact": true}).
	_, err = big.EvalExact(ctx, pdb.WithMaxMemory(2048))
	if !errors.As(err, &le) || le.Resource != "memory" {
		t.Fatalf("exact-path memory limit: err=%v, want *LimitError{memory}", err)
	}
	if res, err := big.EvalExact(ctx, pdb.WithMaxMemory(1<<30)); err != nil || res.Len() == 0 {
		t.Fatalf("generous exact-path memory limit: res=%v err=%v", res, err)
	}

	for _, bad := range []pdb.Option{pdb.WithMaxTrials(0), pdb.WithMaxTrials(-1), pdb.WithMaxMemory(0), pdb.WithMaxMemory(-5)} {
		var oe *pdb.OptionError
		if _, err := q.Eval(ctx, bad); !errors.As(err, &oe) {
			t.Errorf("invalid limit option accepted: %v", err)
		}
	}

	// The engine survives aborted evaluations.
	res, err := q.Eval(ctx, pdb.WithSeed(3))
	if err != nil || res.Len() == 0 {
		t.Fatalf("post-abort eval: res=%v err=%v", res, err)
	}
}

// TestEngineConcurrentEvalRace hammers one Engine from many goroutines —
// the shape a network front-end produces — mixing identical and
// lineage-sharing queries. Run under -race this vets the shared cache's
// locking end to end; results must also all agree bit-for-bit with a cold
// run.
func TestEngineConcurrentEvalRace(t *testing.T) {
	ctx := context.Background()
	db := engineDB(t)
	opts := []pdb.Option{pdb.WithSeed(5), pdb.WithWorkers(4)}

	coldQ, err := db.Prepare(sensorConfProgram)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldQ.Eval(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintRows(cold)

	eng, err := db.Engine(pdb.WithEngineCacheSize(64))
	if err != nil {
		t.Fatal(err)
	}
	programs := []string{
		sensorConfProgram,
		`conf as P (project[Sensor](select[Reading >= 0](Obs)));`,
	}
	const goroutines, iters = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q, err := eng.Prepare(programs[(g+i)%len(programs)])
				if err != nil {
					errs <- err
					return
				}
				res, err := q.Eval(ctx, opts...)
				if err != nil {
					errs <- err
					return
				}
				got := fingerprintRows(res)
				if len(got) != len(want) {
					errs <- fmt.Errorf("goroutine %d iter %d: %d rows, want %d", g, i, len(got), len(want))
					return
				}
				for j := range got {
					if got[j] != want[j] {
						errs <- fmt.Errorf("goroutine %d iter %d row %d: %s != %s", g, i, j, got[j], want[j])
						return
					}
				}
				_ = eng.Stats()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if es := eng.Stats(); es.Evals != goroutines*iters || es.CacheHits == 0 {
		t.Errorf("engine stats after hammer: %+v", es)
	}
}

// TestEngineOperabilityStats covers the stats a service exports for
// operations: the in-flight gauge (observed mid-evaluation through the
// progress hook), the cache capacity, and the limit-trip counter.
func TestEngineOperabilityStats(t *testing.T) {
	db := engineDB(t)
	eng, err := db.Engine(pdb.WithEngineCacheSize(128))
	if err != nil {
		t.Fatal(err)
	}
	if es := eng.Stats(); es.CacheCapacity != 128 || es.InFlight != 0 || es.LimitTrips != 0 {
		t.Fatalf("fresh engine stats: %+v", es)
	}
	q, err := eng.Prepare(sensorConfProgram)
	if err != nil {
		t.Fatal(err)
	}
	var during int64
	_, err = q.Eval(context.Background(), pdb.WithSeed(5),
		pdb.WithProgress(func(pdb.ProgressEvent) { during = eng.Stats().InFlight }))
	if err != nil {
		t.Fatal(err)
	}
	if during != 1 {
		t.Errorf("InFlight during evaluation = %d, want 1", during)
	}
	if es := eng.Stats(); es.InFlight != 0 {
		t.Errorf("InFlight after evaluation = %d, want 0", es.InFlight)
	}

	// A limit abort increments LimitTrips and surfaces as *LimitError.
	_, err = q.Eval(context.Background(), pdb.WithSeed(6),
		pdb.WithMaxTrials(10), pdb.WithConfBudget(0.01, 0.01))
	var le *pdb.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("expected LimitError, got %v", err)
	}
	if es := eng.Stats(); es.LimitTrips != 1 || es.InFlight != 0 {
		t.Errorf("stats after limit trip: %+v", es)
	}
}

// TestClusterErrorThroughEval pins the clustered failure type end to end
// (TestLimitErrors does the same for *pdb.LimitError): with the only shard
// unreachable and no local fallback, Query.Eval fails with an error in
// which errors.As finds a *pdb.ClusterError naming the shard and its
// attempts; once that failure has tripped the shard's breaker, the next
// Eval fails cluster-wide, wrapping pdb.ErrNoHealthyShards.
func TestClusterErrorThroughEval(t *testing.T) {
	ctx := context.Background()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // nothing listens there any more
	eng, err := engineDB(t).Engine(pdb.WithEngineCluster(pdb.ClusterOptions{
		Peers: []string{dead}, DialTimeout: time.Second, Retries: 1, RetryBackoff: time.Millisecond,
		BreakerThreshold: 1, ProbeInterval: -1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.Prepare(sensorConfProgram)
	if err != nil {
		t.Fatal(err)
	}
	var ce *pdb.ClusterError
	if _, err = q.Eval(ctx, pdb.WithSeed(2)); !errors.As(err, &ce) || ce.Shard != dead || ce.Attempts != 2 || ce.Err == nil {
		t.Fatalf("Eval with the shard down: err = %v, want a *pdb.ClusterError naming %s after 2 attempts", err, dead)
	}
	if _, err = q.Eval(ctx, pdb.WithSeed(2)); !errors.As(err, &ce) || ce.Shard != "cluster" || !errors.Is(err, pdb.ErrNoHealthyShards) {
		t.Errorf("Eval with the breaker open: err = %v, want a cluster-wide *pdb.ClusterError wrapping pdb.ErrNoHealthyShards", err)
	}
}

// TestEngineSigmaWarmMatchesCold extends the warm-equals-cold contract to
// σ̂: on one Engine, a σ̂ query that follows another σ̂ over the same
// lineage content but with a different δ — whose cached snapshots run past
// its own rounds — returns rows and error bounds bit-identical to a cold
// run of it, and samples the same trials, for workers 1 and 4.
func TestEngineSigmaWarmMatchesCold(t *testing.T) {
	const program = `aselect[p1 >= 0.7 over conf[Sensor]](project[Sensor](Obs));`
	ctx := context.Background()
	fingerprint := func(res *pdb.Result) []string {
		var out []string
		for row := range res.Rows() {
			out = append(out, fmt.Sprintf("%s|%x|%v", row.Str("Sensor"), math.Float64bits(row.ErrorBound()), row.Singular()))
		}
		return out
	}
	for _, workers := range []int{1, 4} {
		db := engineDB(t)
		opts := func(delta float64) []pdb.Option {
			return []pdb.Option{pdb.WithSeed(9), pdb.WithWorkers(workers), pdb.WithEpsilon(0.02), pdb.WithDelta(delta)}
		}
		coldQ, err := db.Prepare(program)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldQ.Eval(ctx, opts(0.1)...)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := db.Engine()
		if err != nil {
			t.Fatal(err)
		}
		q, err := eng.Prepare(program)
		if err != nil {
			t.Fatal(err)
		}
		first, err := q.Eval(ctx, opts(0.001)...)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := q.Eval(ctx, opts(0.1)...)
		if err != nil {
			t.Fatal(err)
		}
		if first.Stats().FinalRounds <= cold.Stats().FinalRounds {
			t.Fatalf("workers=%d: fixture: the tighter δ ran to l = %d, the cold run to %d; want more rounds",
				workers, first.Stats().FinalRounds, cold.Stats().FinalRounds)
		}
		if got, want := fingerprint(warm), fingerprint(cold); !slices.Equal(got, want) {
			t.Errorf("workers=%d: warm rows %v, cold rows %v", workers, got, want)
		}
		if warm.Stats().SampledTrials != cold.Stats().SampledTrials || warm.Stats().FinalRounds != cold.Stats().FinalRounds {
			t.Errorf("workers=%d: warm run sampled %d trials to l = %d, cold %d to l = %d",
				workers, warm.Stats().SampledTrials, warm.Stats().FinalRounds, cold.Stats().SampledTrials, cold.Stats().FinalRounds)
		}
	}
}
