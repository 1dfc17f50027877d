// Command pdbcli loads complete relations from CSV files and evaluates UA
// queries over them, exactly or approximately, through the public pdb API.
//
// Usage:
//
//	pdbcli -rel Coins=coins.csv -rel Faces=faces.csv \
//	       -query 'conf(project[CoinType](repairkey[@Count](Coins)))'
//
//	pdbcli -rel R=r.csv -queryfile program.ua -approx -eps0 0.05 -delta 0.1 \
//	       -timeout 30s -progress
//
// Relations load from CSV or from pdbstore columnar files (the typed
// on-disk format of docs/STORAGE.md), detected by content; -format
// csv|pdbstore forces one loader. Convert between the formats with
//
//	pdbcli convert relation.csv relation.pdbs     # CSV → pdbstore
//	pdbcli convert relation.pdbs relation.csv     # pdbstore → CSV
//
// -max-memory caps the evaluation's materialized bytes; adding -spill-dir
// turns that cap into out-of-core execution — over-budget intermediates
// spill to disk and the query completes, bit-identically, instead of
// aborting.
//
// The query language is documented in internal/parser. Probabilistic data
// is introduced with repairkey[...@W](...) over the loaded complete
// relations; -approx switches confidence computation and σ̂ decisions to
// the Karp–Luby / Figure-3 machinery with per-tuple error bounds. A
// -timeout bound cancels the evaluation cooperatively; -progress reports
// every σ̂ round and the end of the evaluation on stderr. -cpuprofile and -memprofile
// write pprof profiles of the evaluation (CPU, and heap after a final GC)
// so operator hot spots can be captured without a test harness.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/pdb"
)

type relFlags []string

func (r *relFlags) String() string { return strings.Join(*r, ",") }

func (r *relFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// cliConfig carries the parsed command line.
type cliConfig struct {
	rels       relFlags
	query      string
	queryFile  string
	approx     bool
	explain    bool
	progress   bool
	eps0       float64
	delta      float64
	seed       int64
	workers    int
	timeout    time.Duration
	cpuprofile string
	memprofile string
	format     string
	spillDir   string
	maxMemory  int64
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		if err := runConvert(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pdbcli:", err)
			os.Exit(1)
		}
		return
	}
	var cfg cliConfig
	flag.StringVar(&cfg.query, "query", "", "UA query text")
	flag.StringVar(&cfg.queryFile, "queryfile", "", "file containing the UA query program")
	flag.BoolVar(&cfg.approx, "approx", false, "use approximate evaluation (Karp–Luby + Figure 3)")
	flag.Float64Var(&cfg.eps0, "eps0", 0.05, "ε₀ for approximate evaluation")
	flag.Float64Var(&cfg.delta, "delta", 0.1, "target per-tuple error δ")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed for approximate evaluation")
	flag.IntVar(&cfg.workers, "workers", 0, "parallel estimation workers (0 = GOMAXPROCS); results are seed-determined regardless")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort evaluation after this duration (0 = no limit)")
	flag.BoolVar(&cfg.progress, "progress", false, "report each σ̂ round and the end of the evaluation on stderr")
	flag.BoolVar(&cfg.explain, "explain", false, "print the plan with inferred schemas instead of evaluating")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the evaluation to this file (inspect with go tool pprof)")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile (after evaluation and a final GC) to this file")
	flag.StringVar(&cfg.format, "format", "auto", "relation file format: auto (sniff per file), csv, or pdbstore")
	flag.StringVar(&cfg.spillDir, "spill-dir", "", "with -max-memory: spill over-budget intermediates here instead of aborting (out-of-core evaluation)")
	flag.Int64Var(&cfg.maxMemory, "max-memory", 0, "cap on estimated materialized bytes (0 = unlimited); aborts with a limit error unless -spill-dir is set")
	flag.Var(&cfg.rels, "rel", "Name=path — a complete relation to load, CSV or pdbstore (repeatable)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pdbcli:", err)
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling and returns a stop function that also
// captures the heap profile, so operator hot spots can be captured from
// the CLI without a test harness.
func startProfiles(cfg cliConfig) (func() error, error) {
	var cpuFile *os.File
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return nil, fmt.Errorf("creating -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if cfg.memprofile != "" {
			f, err := os.Create(cfg.memprofile)
			if err != nil {
				return fmt.Errorf("creating -memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("writing heap profile: %w", err)
			}
		}
		return nil
	}, nil
}

func run(cfg cliConfig) (err error) {
	src := cfg.query
	if cfg.queryFile != "" {
		data, err := os.ReadFile(cfg.queryFile)
		if err != nil {
			return err
		}
		src = string(data)
	}
	if src == "" {
		return fmt.Errorf("no query given; use -query or -queryfile")
	}

	stopProfiles, err := startProfiles(cfg)
	if err != nil {
		return err
	}
	// Finalize the profiles on every return path: a truncated CPU profile
	// or missing heap profile is worse than no profile at all.
	defer func() {
		if stopErr := stopProfiles(); stopErr != nil && err == nil {
			err = stopErr
		}
	}()

	sources := map[string]string{}
	for _, spec := range cfg.rels {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -rel %q; want Name=path", spec)
		}
		sources[name] = path
	}
	db, err := openDB(cfg.format, sources)
	if err != nil {
		return err
	}

	// Prepare parses, validates, and schema-checks before any evaluation
	// work (and powers -explain).
	q, err := db.Prepare(src)
	if err != nil {
		return err
	}
	if cfg.explain {
		fmt.Print(q.Explain())
		return nil
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	var limitOpts []pdb.Option
	if cfg.maxMemory > 0 {
		limitOpts = append(limitOpts, pdb.WithMaxMemory(cfg.maxMemory))
	}
	if cfg.spillDir != "" {
		limitOpts = append(limitOpts, pdb.WithSpillDir(cfg.spillDir))
	}

	if !cfg.approx {
		res, err := q.EvalExact(ctx, append([]pdb.Option{pdb.WithWorkers(cfg.workers)}, limitOpts...)...)
		if err != nil {
			return timeoutErr(err, cfg.timeout)
		}
		printResult(res, false)
		return nil
	}

	opts := append([]pdb.Option{
		pdb.WithEpsilon(cfg.eps0),
		pdb.WithDelta(cfg.delta),
		pdb.WithSeed(cfg.seed),
		pdb.WithWorkers(cfg.workers),
	}, limitOpts...)
	if cfg.progress {
		opts = append(opts, pdb.WithProgress(func(ev pdb.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "# rounds=%d/%d re-walks=%d worst-bound=%.4g decisions=%d sampled=%d reused=%d done=%v\n",
				ev.Rounds, ev.MaxRounds, ev.Restart, ev.WorstBound, ev.Decisions, ev.SampledTrials, ev.ReusedTrials, ev.Done)
		}))
	}
	res, err := q.Eval(ctx, opts...)
	if err != nil {
		return timeoutErr(err, cfg.timeout)
	}
	printResult(res, true)
	return nil
}

// timeoutErr rewraps a deadline error with the user's -timeout value.
func timeoutErr(err error, timeout time.Duration) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("evaluation timed out after %s", timeout)
	}
	return err
}

func printResult(res *pdb.Result, stats bool) {
	fmt.Println(strings.Join(res.Columns(), "\t"))
	for row := range res.Rows() {
		fmt.Println(row)
	}
	if stats {
		s := res.Stats()
		fmt.Printf("\n# rounds=%d restarts=%d sampled-trials=%d reused-trials=%d decisions=%d singular-drops=%d\n",
			s.FinalRounds, s.Restarts, s.SampledTrials, s.ReusedTrials, s.Decisions, s.SingularDrops)
	}
}

// / openDB loads the -rel sources honouring -format: auto (the default,
// and what a zero config means) sniffs each file's content, csv and
// pdbstore force one loader for every file.
func openDB(format string, sources map[string]string) (*pdb.DB, error) {
	switch format {
	case "", "auto":
		return pdb.Open(sources)
	case "csv", "pdbstore":
	default:
		return nil, fmt.Errorf("-format must be auto, csv, or pdbstore; got %q", format)
	}
	b := pdb.NewBuilder()
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic load order, like pdb.Open
	for _, name := range names {
		if format == "pdbstore" {
			b.Store(name, sources[name])
			continue
		}
		f, err := os.Open(sources[name])
		if err != nil {
			return nil, fmt.Errorf("opening relation %q: %w", name, err)
		}
		b.CSV(name, f)
		f.Close()
	}
	return b.Build()
}

// runConvert implements `pdbcli convert <in> <out>`: a pdbstore input
// converts to CSV, anything else parses as CSV and converts to pdbstore.
// CSV → pdbstore is lossless (the stored file loads bit-identically to the
// CSV); pdbstore → CSV re-types on reload for values CSV cannot represent,
// such as strings that look like numbers (see docs/STORAGE.md).
func runConvert(args []string) error {
	fs := flag.NewFlagSet("pdbcli convert", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: pdbcli convert <in.csv|in.pdbs> <out>")
		fmt.Fprintln(fs.Output(), "converts CSV to the pdbstore columnar format, or a pdbstore file back to CSV")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("convert wants exactly two arguments, got %d", fs.NArg())
	}
	in, out := fs.Arg(0), fs.Arg(1)
	if store.Sniff(in) {
		r, err := store.ReadRelation(in, rel.NewInterner())
		if err != nil {
			return err
		}
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := parser.SaveCSV(f, r); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	r, err := parser.LoadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	return store.WriteRelation(out, r)
}
