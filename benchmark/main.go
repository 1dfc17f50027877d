// Command benchmark is the repository's end-to-end benchmark: four
// closed-loop workloads against the surfaces users call (pdb.Query,
// internal/server over loopback HTTP), every result checked against an
// exact oracle, plus a traced pass
// that re-runs each op as a ladder of calls into every layer's public
// functions and splits the time by layer. See README.md.
//
// The driver contract (BENCHMARK.json) runs it through run.sh as
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// gcPercent is the GOGC value the benchmark pins, recorded in the
// environment header: the heap may grow to five times what is live (and to
// at least 16 MB) before a collection starts, which no single op allocates,
// so the only collections of a measured phase are the ones closedLoop runs
// between ops.
const gcPercent = 400

// setupRuns is how many times an untraced pass sets its workload up. Each
// set-up is followed by its share of the measured phase, so that the
// set-ups are spread over the pass like the ops are: done back to back they
// all fall into the same busy or quiet stretch of the host. The pass reports
// setupTime over them.
const setupRuns = 40

// clients is the number of closed-loop clients of every workload, and
// gomaxprocs the GOMAXPROCS it runs under: the client, its op's single
// worker, the HTTP server and the shards all take turns on one thread. The
// machine has two shared vCPUs; whenever a goroutine on one wakes a
// goroutine on the other, the op waits for the host to schedule that vCPU,
// and with GOMAXPROCS at 2 the same runs spread twice as far (README.md,
// "Steadiness"). Only the traced pass's parallel rung raises it.
const (
	clients    = 1
	gomaxprocs = 1
)

// Trace modes of -trace.
const (
	traceOff  = 0 // untraced pass only: end-to-end metrics
	traceOn   = 1 // traced pass only: per-layer metrics
	traceBoth = 2 // both, the traced pass compared against the untraced one
)

type config struct {
	seed    int64
	seconds float64
	procs   int
	outDir  string
	trace   int
	commit  string
}

// untracedResult is the outcome of a workload's untraced pass.
type untracedResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// P90Resolved reports whether enough samples lie beyond the 90th
	// percentile for query_p90_ms to be read (see resolvable).
	P90Resolved bool               `json:"p90_resolved"`
	FirstError  string             `json:"first_error,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	// RawP50MS is the median of the ops' latencies as measured, host noise
	// included; the metrics are taken over class floors (see endToEnd).
	RawP50MS float64 `json:"raw_p50_ms"`
	// Samples holds every op in the order sent, so that a reader can
	// recompute or re-cut the metrics.
	Samples []sample `json:"samples"`
}

// tracedResult is the outcome of a workload's traced pass.
type tracedResult struct {
	// Ops counts the ops climbed as the ladder; Attempted adds the ops of
	// the untraced loop a traced-only pass runs first.
	Ops        int                `json:"ops"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	TraceFile  string             `json:"trace_file"`
	Metrics    map[string]float64 `json:"metrics"`
	// PrefixCounts holds exactCounts over the first PrefixOps ops only. A
	// pass is bounded by time, so two passes climb different numbers of
	// ops; over the same prefix of the same seed's stream these counts must
	// repeat exactly (see compare).
	PrefixOps    int                `json:"prefix_ops"`
	PrefixCounts map[string]float64 `json:"prefix_counts"`
}

// exactPrefixOps is the length of the prefix PrefixCounts is taken over:
// two serve-mixed blocks, eight cycles of a five-parameter pool.
const exactPrefixOps = 40

type workloadResult struct {
	Name     string          `json:"name"`
	Why      string          `json:"why"`
	Scenario string          `json:"scenario"`
	Rows     int64           `json:"rows"`
	Clients  int             `json:"clients"`
	Surface  surface         `json:"surface"`
	Untraced *untracedResult `json:"untraced,omitempty"`
	Traced   *tracedResult   `json:"traced,omitempty"`
}

// document is the JSON document one invocation writes to <out>/result.json.
type document struct {
	Environment map[string]any   `json:"environment"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	EndToEnd    []metricDef      `json:"end_to_end"`
	PerLayer    []metricDef      `json:"per_layer"`
	Workloads   []workloadResult `json:"workloads"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var name, compareA string
	var notrace bool
	flag.StringVar(&name, "workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: op order, mix and every sampling seed derive from it")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of each measured pass")
	flag.IntVar(&cfg.procs, "procs", min(runtime.NumCPU(), 4), "P: GOMAXPROCS and worker count of the traced pass's parallel rung (GOMAXPROCS is 1 everywhere else)")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for result.json, traces and the generated corpus")
	flag.IntVar(&cfg.trace, "trace", traceBoth, "0 untraced pass only, 1 traced pass only, 2 both")
	flag.BoolVar(&notrace, "notrace", false, "same as -trace 0")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit under test, recorded in result.json")
	flag.StringVar(&compareA, "compare", "", "compare this result.json with the one given as argument, using -spec's bounds")
	spec := flag.String("spec", "BENCHMARK.json", "BENCHMARK.json holding the bounds -compare uses")
	flag.Parse()
	if compareA != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: -compare a/result.json b/result.json")
			return 2
		}
		return compare(*spec, compareA, flag.Arg(0))
	}
	if notrace {
		cfg.trace = traceOff
	}
	var todo []*workload
	if name == "all" {
		todo = workloads()
	} else if w := workloadByName(name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
		return 2
	}
	if cfg.seconds <= 0 || cfg.procs < 1 || cfg.trace < traceOff || cfg.trace > traceBoth {
		fmt.Fprintln(os.Stderr, "need -seconds > 0, -procs ≥ 1, -trace in 0..2")
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	debug.SetGCPercent(gcPercent)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	doc := document{
		Environment: environment(cfg),
		Seed:        cfg.seed, Seconds: cfg.seconds,
		EndToEnd: endToEndDefs, PerLayer: layerDefs,
	}
	attempted, failed := 0, 0
	var last map[string]float64
	for _, w := range todo {
		wr := workloadResult{Name: w.Name, Why: w.Why, Scenario: w.Scenario, Rows: w.Rows,
			Clients: clients, Surface: w.Surface}
		untracedP50 := 0.0
		if cfg.trace != traceOn {
			u, err := untracedPass(ctx, w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
				return 2
			}
			wr.Untraced, last = u, u.Metrics
			attempted, failed = attempted+u.Attempted, failed+u.Failed
			untracedP50 = u.Metrics["query_p50_ms"]
			printMetrics(w.Name, endToEndDefs, u.Metrics)
			fmt.Printf("%s failed_share %g ratio\n", w.Name, float64(u.Failed)/float64(u.Attempted))
			fmt.Printf("%s samples %d count\n", w.Name, u.Attempted)
			if u.FirstError != "" {
				fmt.Fprintf(os.Stderr, "%s: first failed op: %s\n", w.Name, u.FirstError)
			}
		}
		if cfg.trace != traceOff {
			t, err := tracedPass(ctx, w, cfg, untracedP50)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
				return 2
			}
			wr.Traced, last = t, t.Metrics
			attempted, failed = attempted+t.Attempted, failed+t.Failed
			printMetrics(w.Name, layerDefs, t.Metrics)
			if t.FirstError != "" {
				fmt.Fprintf(os.Stderr, "%s: first failed traced op: %s\n", w.Name, t.FirstError)
			}
		}
		doc.Workloads = append(doc.Workloads, wr)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(todo) == 1 && cfg.trace != traceBoth {
		// The driver contract's result line: one workload, one pass.
		defs := endToEndDefs
		if cfg.trace == traceOn {
			defs = layerDefs
		}
		fmt.Println(contractLine(defs, last, attempted, failed))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// untracedPass sets the workload up setupRuns times, runs one closed loop
// over all the set-ups, a share of the pass on each, and reports the
// end-to-end metrics.
func untracedPass(ctx context.Context, w *workload, cfg config) (*untracedResult, error) {
	var r loopResult
	var setups [][]float64
	share := time.Duration(cfg.seconds * float64(time.Second) / setupRuns)
	for i := 0; i < setupRuns && ctx.Err() == nil; i++ {
		e, err := setup(ctx, w, cfg.seed, cfg.procs, cfg.outDir, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, e.steps)
		closedLoop(ctx, e, share, &r)
		e.close()
	}
	if len(r.Samples) == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	return &untracedResult{
		Attempted: len(r.Samples), Failed: r.Failed, FirstError: r.FirstError,
		P90Resolved: resolvable(len(r.Samples), 0.9),
		Metrics:     endToEnd(r, setupTime(setups)),
		RawP50MS:    median(latencies(r.Samples)),
		Samples:     r.Samples,
	}, nil
}

// untracedShare is the part of a traced-only pass spent on an untraced
// closed loop, whose query_p50_ms the tracing overhead is taken against.
const untracedShare = 0.2

// tracedPass climbs the ladder with client 0's op stream for the length of
// the pass, writes the spans to <out>/trace-<workload>.json, and derives
// the per-layer metrics. untracedP50 is the query_p50_ms of the untraced
// pass; when there was none (0), the pass measures one itself first.
func tracedPass(ctx context.Context, w *workload, cfg config, untracedP50 float64) (*tracedResult, error) {
	e, err := setup(ctx, w, cfg.seed, cfg.procs, cfg.outDir, true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	out := &tracedResult{}
	if untracedP50 == 0 {
		head := time.Duration(untracedShare * float64(dur))
		var r loopResult
		closedLoop(ctx, e, head, &r)
		if len(r.Samples) == 0 {
			return nil, fmt.Errorf("no op completed")
		}
		untracedP50, dur = endToEnd(r, 0)["query_p50_ms"], dur-head
		out.Attempted, out.Failed, out.FirstError = len(r.Samples), r.Failed, r.FirstError
	}
	l := &ladder{e: e, tr: newTracer()}
	for i, start := 0, time.Now(); (i == 0 || time.Since(start) < dur) && ctx.Err() == nil; i++ {
		failed, err := l.climb(ctx, i, w.next(w, cfg.seed, 0, i))
		if err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
		runtime.GC() // as between the ops of closedLoop
		out.Ops++
		out.Attempted++
		if failed != nil {
			out.Failed++
			if out.FirstError == "" {
				out.FirstError = failed.Error()
			}
		}
	}
	out.TraceFile = filepath.Join(cfg.outDir, "trace-"+w.Name+".json")
	if err := writeJSON(out.TraceFile, l.tr.spans); err != nil {
		return nil, err
	}
	out.Metrics = layerMetrics(l.tr.spans, w.Surface, cfg.procs, untracedP50)
	var prefix []span
	for _, sp := range l.tr.spans {
		if sp.Op < exactPrefixOps {
			prefix = append(prefix, sp)
		}
	}
	out.PrefixOps, out.PrefixCounts = min(out.Ops, exactPrefixOps), map[string]float64{}
	for name, v := range layerMetrics(prefix, w.Surface, cfg.procs, untracedP50) {
		if slices.Contains(exactCounts, name) {
			out.PrefixCounts[name] = v
		}
	}
	return out, nil
}

// environment is the header recorded with every result.
func environment(cfg config) map[string]any {
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS, "goarch": runtime.GOARCH,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": gomaxprocs, "parallel_rung_procs": cfg.procs,
		"gogc":   gcPercent,
		"kernel": kernel,
		"commit": cfg.commit,
	}
}

// printMetrics prints "workload metric value unit" for every metric of
// defs, in their order.
func printMetrics(workload string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%s %s %g %s\n", workload, d.Name, values[d.Name], d.Unit)
	}
}

// contractLine renders the driver contract's result object.
func contractLine(defs []metricDef, values map[string]float64, attempted, failed int) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // only a NaN or infinite metric cannot be marshalled: a bug in a derivation
	}
	return string(line)
}
