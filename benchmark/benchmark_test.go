package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/urel"
)

func TestPercentile(t *testing.T) {
	samples := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}, {0.125, 15},
	} {
		if got := percentile(samples, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !reflect.DeepEqual(samples, []float64{50, 10, 40, 20, 30}) {
		t.Errorf("percentile reordered its input: %v", samples)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

// TestResolvable pins the sample-count rule: a percentile is read only
// with at least ten samples beyond it.
func TestResolvable(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {140, 0.9, true},
		{19, 0.5, false}, {20, 0.5, true}, {999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := resolvable(tc.n, tc.q); got != tc.want {
			t.Errorf("resolvable(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// TestSelfTimes checks the span arithmetic on a hand-built tree: children
// are subtracted once where they overlap, clipped to their parent, and a
// grandchild counts against its own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // 20 past the parent's end
		{ID: 5, Parent: 2, Name: "a1", StartNS: 15, EndNS: 25},
	}
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestFloored checks the traced pass's class floors: a rung's duration and
// its "_ns" counts become the smallest of the op's class, other counts and
// other classes stay.
func TestFloored(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 0, Name: "op", Class: "a", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Op: 0, Name: "r", StartNS: 10, EndNS: 40, Counts: map[string]float64{"ttfb_ns": 9, "rows": 3}},
		{ID: 3, Op: 1, Name: "op", Class: "a", StartNS: 100, EndNS: 180},
		{ID: 4, Parent: 3, Op: 1, Name: "r", StartNS: 110, EndNS: 160, Counts: map[string]float64{"ttfb_ns": 5, "rows": 4}},
		{ID: 5, Op: 2, Name: "op", Class: "b", StartNS: 200, EndNS: 500},
		{ID: 6, Parent: 5, Op: 2, Name: "r", StartNS: 210, EndNS: 300, Counts: map[string]float64{"ttfb_ns": 70, "rows": 5}},
	}
	got := floored(spans)
	for op, want := range []struct{ opNS, rNS, ttfb, rows float64 }{{80, 30, 5, 3}, {80, 30, 5, 4}, {300, 90, 70, 5}} {
		o := got[op]
		if o["op"].duration() != time.Duration(want.opNS) || o["r"].duration() != time.Duration(want.rNS) ||
			o.count("r", "ttfb_ns") != want.ttfb || o.count("r", "rows") != want.rows {
			t.Errorf("op %d: op %v, r %v, counts %v; want %+v", op, o["op"].duration(), o["r"].duration(), o["r"].Counts, want)
		}
	}
	if spans[1].EndNS != 40 || spans[1].Counts["ttfb_ns"] != 9 {
		t.Errorf("floored changed its input: %+v", spans[1])
	}
}

// opList is the first n ops of the measured stream of w under seed.
func opList(w *workload, seed int64, n int) []op {
	var ops []op
	for i := 0; i < n; i++ {
		ops = append(ops, w.next(w, seed, 0, i))
	}
	return ops
}

// TestFloors pins the class-floor rule the end-to-end timings rest on:
// every sample takes the smallest value of its class, classes apart.
func TestFloors(t *testing.T) {
	samples := []sample{
		{Class: "a", LatencyMS: 5}, {Class: "b", LatencyMS: 40}, {Class: "a", LatencyMS: 3},
		{Class: "b", LatencyMS: 90}, {Class: "a", LatencyMS: 7}, {Class: "c", LatencyMS: 1},
	}
	got := floors(samples, func(s sample) float64 { return s.LatencyMS })
	if want := []float64{3, 40, 3, 40, 3, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("floors = %v, want %v", got, want)
	}
	m := endToEnd(loopResult{Samples: []sample{
		{Class: "a", LatencyMS: 2, CycleMS: 4, CPUMS: 3}, {Class: "a", LatencyMS: 9, CycleMS: 10, CPUMS: 5},
		{Class: "b", LatencyMS: 6, CycleMS: 6, CPUMS: 9}, {Class: "b", LatencyMS: 8, CycleMS: 16, CPUMS: 7},
	}, AllocBytes: 8 << 20}, 1.5)
	want := map[string]float64{"setup_s": 1.5, "query_p50_ms": 4, "query_p90_ms": 6,
		"queries_per_s": 200, "cpu_ms_per_query": 5, "alloc_mb_per_query": 2}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("endToEnd = %v, want %v", m, want)
	}
	// Set-up time: each step takes its floor over the set-ups.
	if got := setupTime([][]float64{{3, 10, 2}, {4, 8, 1}, {2, 9, 5}}); got != 2+8+1 {
		t.Errorf("setupTime = %v, want 11", got)
	}
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := opList(w, 7, 60), opList(w, 7, 60), opList(w, 8, 60)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different op lists", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.Name)
		}
	}
}

// TestWarmUpIsTheSameUnderEverySeed pins what keeps setup_s independent of
// the seed: the warm-up runs the same classes in the same order, covers
// every parameter, and only serve-mixed's hot pairs take the run's seed.
func TestWarmUpIsTheSameUnderEverySeed(t *testing.T) {
	for _, w := range workloads() {
		a, b := warmUpOps(w, 7), warmUpOps(w, 8)
		if len(a) < minWarmUpOps || len(a) != len(b) {
			t.Fatalf("%s: %d and %d warm-up ops", w.Name, len(a), len(b))
		}
		params := map[int]bool{}
		for i := range a {
			params[a[i].Param] = true
			if a[i].Kind != b[i].Kind || a[i].Param != b[i].Param || a[i].Hot != b[i].Hot {
				t.Errorf("%s: warm-up op %d is %+v under seed 7 and %+v under seed 8", w.Name, i, a[i], b[i])
			}
			if w.Surface != surfaceHTTP && a[i].Seed != b[i].Seed {
				t.Errorf("%s: warm-up op %d samples under another seed", w.Name, i)
			}
		}
		if len(params) != len(w.Params) {
			t.Errorf("%s: the warm-up uses %d of %d parameters", w.Name, len(params), len(w.Params))
		}
	}
}

// TestOpStreamsAreBalanced pins what keeps a run's cost independent of its
// seed: every window of pool-size ops uses each parameter once, every
// serve-mixed block holds exactly 12 hot, 5 fresh and 3 exact ops, and each
// kind walks the parameter pool evenly.
func TestOpStreamsAreBalanced(t *testing.T) {
	for _, w := range workloads() {
		if w.Name == "serve-mixed" {
			continue
		}
		seen := map[int]int{}
		for i := 0; i < 3*len(w.Params); i++ {
			seen[w.next(w, 5, 0, i).Param]++
		}
		for p := range w.Params {
			if seen[p] != 3 {
				t.Errorf("%s: parameter %d used %d times in 3 pool cycles", w.Name, p, seen[p])
			}
		}
	}
	w := workloadByName("serve-mixed")
	seeds := map[int64]bool{}
	classes := map[string]int{}
	for block := 0; block < 4; block++ {
		hot, fresh, exact := 0, 0, 0
		for k := 0; k < mixBlock; k++ {
			o := w.next(w, 5, 0, block*mixBlock+k)
			classes[o.class()]++
			switch {
			case o.Hot:
				hot++
			case o.Kind == kindExact:
				exact++
			default:
				fresh++
				if seeds[o.Seed] {
					t.Errorf("fresh seed %d used twice", o.Seed)
				}
				seeds[o.Seed] = true
			}
		}
		if hot != mixHotOps || fresh != mixFreshOps || exact != mixBlock-mixHotOps-mixFreshOps {
			t.Errorf("block %d: %d hot, %d fresh, %d exact", block, hot, fresh, exact)
		}
	}
	// Four blocks hold 48 hot, 20 fresh and 12 exact ops over 4 parameters.
	for p := range w.Params {
		for class, want := range map[string]int{"hot": 12, "conf": 5, "exact": 3} {
			if got := classes[fmt.Sprintf("%s/%d", class, p)]; got != want {
				t.Errorf("class %s/%d sent %d times in 4 blocks, want %d", class, p, got, want)
			}
		}
	}
}

// TestCheckRejectsCorruptedResults corrupts a correct answer of each op
// kind in each way its rule can be broken.
func TestCheckRejectsCorruptedResults(t *testing.T) {
	exact := oracle{"a": 0.9, "b": 0.5, "c": 0.2, "d": 0.05}
	rows := func(ps map[string]float64) opResult {
		var out opResult
		for k, p := range ps {
			out.Rows = append(out.Rows, outRow{Key: k, P: p})
		}
		return out
	}
	all := map[string]float64{"a": 0.9, "b": 0.5, "c": 0.2, "d": 0.05}
	without := func(key string) map[string]float64 {
		out := map[string]float64{}
		for k, p := range all {
			if k != key {
				out[k] = p
			}
		}
		return out
	}
	with := func(key string, p float64) map[string]float64 {
		out := without(key)
		out[key] = p
		return out
	}
	exactOp := op{Kind: kindExact}
	confOp := op{Kind: kindConf, Eps: 0.1, Delta: 0.1}
	// τ = 0.4, ε₀ = 0.1: a and b (p ≥ 0.444) must be present, c and d
	// (p ≤ 0.364) absent; δ = 0.1 of 4 decided tuples tolerates none.
	sigmaOp := op{Kind: kindSigma, Tau: 0.4, Eps: 0.1, Delta: 0.1}
	hotOp := op{Kind: kindConf, Eps: 0.1, Delta: 0.1, Hot: true}
	for _, tc := range []struct {
		name string
		op   op
		res  opResult
		ok   bool
	}{
		{"exact/correct", exactOp, rows(all), true},
		{"exact/rounding", exactOp, rows(with("b", 0.5*(1+1e-12))), true},
		{"exact/off by 1e-6", exactOp, rows(with("b", 0.5*(1+1e-6))), false},
		{"exact/missing row", exactOp, rows(without("c")), false},
		{"exact/unknown row", exactOp, rows(with("z", 0.1)), false},
		{"conf/correct", confOp, rows(all), true},
		{"conf/within ε", confOp, rows(with("a", 0.9*1.09)), true},
		{"conf/one of four beyond ε", confOp, rows(with("a", 0.9*1.2)), false},
		{"conf/missing row", confOp, rows(without("d")), false},
		{"conf/duplicate row", confOp, opResult{Rows: append(rows(all).Rows, outRow{Key: "a", P: 0.9})}, false},
		{"sigma/correct", sigmaOp, rows(map[string]float64{"a": 0.88, "b": 0.52}), true},
		{"sigma/clear tuple missing", sigmaOp, rows(map[string]float64{"a": 0.88}), false},
		{"sigma/clear tuple present", sigmaOp, rows(map[string]float64{"a": 0.88, "b": 0.52, "d": 0.41}), false},
		{"sigma/impossible tuple", sigmaOp, rows(map[string]float64{"a": 0.88, "b": 0.52, "z": 0.5}), false},
		{"hot/replayed", hotOp, rows(all), true},
		{"hot/sampled", hotOp, opResult{Rows: rows(all).Rows, SampledTrials: 4096}, false},
	} {
		if err := check(tc.op, tc.res, exact); (err == nil) != tc.ok {
			t.Errorf("%s: check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// A σ̂ tuple inside the ε₀ band around τ may go either way.
	band := oracle{"a": 0.9, "m": 0.41}
	for _, res := range []opResult{rows(map[string]float64{"a": 0.9}), rows(map[string]float64{"a": 0.9, "m": 0.41})} {
		if err := check(sigmaOp, res, band); err != nil {
			t.Errorf("σ̂ tuple within the ε₀ band rejected: %v", err)
		}
	}
}

// small returns a copy of workload name over a corpus of rows tuples.
func small(t *testing.T, name string, rows int64) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	w.Rows = rows
	return w
}

// TestOracleAgainstPossibleWorlds checks the oracle itself, once, against
// the reference semantics: on a 40-row corpus the exact evaluator's
// confidences must equal those of explicit possible-worlds enumeration.
func TestOracleAgainstPossibleWorlds(t *testing.T) {
	ctx := context.Background()
	w := small(t, "exact-join", 40)
	e, err := setup(ctx, w, 1, 2, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	udb := urel.NewDatabase()
	for name, path := range e.sources {
		r, err := store.ReadRelation(path, rel.NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		udb.AddComplete(name, r)
	}
	wev, err := algebra.NewWorldsEvaluatorFromURel(udb, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := parser.Parse(w.oracle(w.Params[0]))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := lineageInput(plan)
	if err != nil {
		t.Fatal(err)
	}
	byWorlds, err := wev.EvalConf(sub, "P")
	if err != nil {
		t.Fatal(err)
	}
	got := e.oracles[0]
	if len(got) == 0 || len(got) != byWorlds.Len() {
		t.Fatalf("oracle has %d rows, possible worlds %d", len(got), byWorlds.Len())
	}
	for _, row := range byWorlds.Tuples() {
		key := rowKey([]any{row[0].AsInt(), row[1].AsString()})
		p, ok := got[key]
		if want := row[2].AsFloat(); !ok || math.Abs(p-want) > 1e-12 {
			t.Errorf("tuple %v: oracle %v (present %v), possible worlds %v", row[:2], p, ok, want)
		}
	}
}

// TestEveryWorkloadEndToEnd runs each workload at a small corpus through
// its untraced loop and one climb of the ladder: no op may fail, and the
// ladder must yield a finite value for every per-layer metric.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"exact-join", "conf-flat", "sigma-strat", "serve-mixed"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name, 120)
			e, err := setup(ctx, w, 3, 2, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			var r loopResult
			closedLoop(ctx, e, 50*time.Millisecond, &r)
			if len(r.Samples) == 0 || r.Failed != 0 {
				t.Fatalf("untraced loop: %d attempted, %d failed: %s", len(r.Samples), r.Failed, r.FirstError)
			}
			for name, v := range endToEnd(r, 1) {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v, want positive and finite", name, v)
				}
			}
			l := &ladder{e: e, tr: newTracer()}
			for i := 0; i < 3; i++ {
				failed, err := l.climb(ctx, i, w.next(w, 3, 0, i))
				if err != nil || failed != nil {
					t.Fatalf("climb %d: error %v, failed %v", i, err, failed)
				}
			}
			got := layerMetrics(l.tr.spans, w.Surface, 2, endToEnd(r, 1)["query_p50_ms"])
			for _, d := range layerDefs {
				if v, ok := got[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", d.Name, v, ok)
				}
			}
			if len(got) != len(layerDefs) {
				t.Errorf("%d per-layer metrics derived, %d defined", len(got), len(layerDefs))
			}
			if got["cluster.hedges"] != 0 || got["cluster.failovers"] != 0 || got["server.rejected_share"] != 0 {
				t.Errorf("faults on a healthy loopback: %v hedges, %v failovers, %v rejected",
					got["cluster.hedges"], got["cluster.failovers"], got["server.rejected_share"])
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// and -compare read, equal to the tables this package measures by.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	var names []string
	for i, w := range workloads() {
		names = append(names, w.Name)
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d (%s) differs from BENCHMARK.json", i, w.Name)
		}
	}
	if len(spec.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json lists %d workloads, want %v", len(spec.Workloads), names)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end = %+v, want %+v", spec.EndToEnd, endToEndDefs)
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
		}
		return out
	}
	if !reflect.DeepEqual(spec.PerLayer, strip(layerDefs)) {
		t.Errorf("per_layer differs from layerDefs")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), layerDefs...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}
