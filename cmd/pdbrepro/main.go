// Command pdbrepro regenerates every experiment table of the reproduction
// (internal/experiments' E1–E10: the paper's figures, worked examples, and
// quantitative theorems, measured on the engine).
//
// Usage:
//
//	pdbrepro [-experiment all|E1|…|E10] [-seed N] [-quick] [-timeout 5m]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		which   = flag.String("experiment", "all", "experiment id (E1..E10) or 'all'")
		seed    = flag.Int64("seed", 2008, "random seed (PODS'08 vintage)")
		quick   = flag.Bool("quick", false, "shrink trial counts for a fast pass")
		workers = flag.Int("workers", 0, "parallel estimation workers (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 0, "abort engine evaluation after this duration (0 = no limit)")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Workers: *workers, Ctx: ctx}
	if *which != "all" {
		run, title, ok := experiments.Lookup(*which)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use E1..E10 or all\n", *which)
			os.Exit(2)
		}
		if err := runOne(*which, title, run, cfg, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for _, e := range experiments.All() {
		if err := runOne(e.ID, e.Title, e.Run, cfg, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func runOne(id, title string, run experiments.Runner, cfg experiments.Config, timeout time.Duration) error {
	fmt.Printf("=== %s — %s ===\n", id, title)
	summary, err := run(os.Stdout, cfg)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("%s: evaluation timed out after %s", id, timeout)
		}
		return fmt.Errorf("%s: %w", id, err)
	}
	fmt.Println("\nkey measurements:")
	summary.Print(os.Stdout)
	fmt.Println()
	return nil
}
