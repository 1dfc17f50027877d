// Data cleaning with probabilistic repairs on the public pdb API — the use
// case the paper's introduction motivates. Duplicate-record clusters carry
// weighted candidate resolutions; repair-key turns them into a
// probabilistic database of possible clean instances, and an approximate
// selection keeps only the clusters whose most likely resolution has
// confidence ≥ 0.6 — a predicate over approximated marginal probabilities
// (σ̂, Section 6). The -timeout-style context support bounds the
// evaluation, and a progress hook observes each σ̂ round.
//
// Run with: go run ./examples/datacleaning
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/pdb"
)

func main() {
	// Candidate resolutions per duplicate cluster with match weights.
	// Clusters 0, 2, and 5 have a dominant candidate (cleanly resolvable);
	// the others are ambiguous.
	candidates := [][]any{
		{0, "Acme Corp", 2.8}, {0, "Acme Co", 0.4}, {0, "ACME", 0.3},
		{1, "Globex", 0.9}, {1, "Globex Inc", 0.8}, {1, "Globex LLC", 0.7},
		{2, "Initech", 2.5}, {2, "Intech", 0.5},
		{3, "Umbrella", 0.6}, {3, "Umbrela", 0.6}, {3, "Umbrello", 0.5},
		{4, "Stark Ind", 1.1}, {4, "Stark Industries", 0.9},
		{5, "Wayne Ent", 3.0}, {5, "Wayne Enterprises", 0.4},
	}
	db, err := pdb.NewBuilder().
		Table("Candidates", []string{"Cluster", "Name", "Weight"}, candidates...).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Candidates (cluster, candidate name, match weight):")
	for _, c := range candidates {
		fmt.Printf("  %v\n", c)
	}

	// Clean := repair-key_{Cluster}@Weight(Candidates): one candidate per
	// cluster, weighted; then σ̂ keeps (Cluster, Name) pairs whose marginal
	// confidence is at least 0.6 — confidently resolved records.
	q, err := db.Prepare(`
		Clean := repairkey[Cluster @ Weight](Candidates);
		aselect[p1 >= 0.6 over conf[Cluster, Name]](Clean);
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Exact reference.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	exact, err := q.EvalExact(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nConfidently resolved records (exact confidence ≥ 0.6):")
	printResolved(exact, false)

	// Approximate engine with per-tuple error bounds and an observer on
	// the σ̂'s rounds: its l doubles until every decision is within δ.
	approx, err := q.Eval(ctx,
		pdb.WithEpsilon(0.05), pdb.WithDelta(0.05), pdb.WithSeed(99),
		pdb.WithProgress(func(ev pdb.ProgressEvent) {
			fmt.Printf("  [progress] rounds=%d worst-bound=%.4g decisions=%d sampled=%d done=%v\n",
				ev.Rounds, ev.WorstBound, ev.Decisions, ev.SampledTrials, ev.Done)
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSame query, approximate (Karp–Luby + Figure 3), with error bounds:")
	printResolved(approx, true)
	s := approx.Stats()
	fmt.Printf("\nstats: rounds=%d re-walks=%d decisions=%d sampled-trials=%d reused-trials=%d\n",
		s.FinalRounds, s.Restarts, s.Decisions, s.SampledTrials, s.ReusedTrials)
	fmt.Println("\nClusters without a dominant candidate stay unresolved — downstream")
	fmt.Println("processing sees only records cleaned with quantified reliability.")
}

func printResolved(res *pdb.Result, withBounds bool) {
	for row := range res.Rows() {
		line := fmt.Sprintf("  cluster %d → %-18s conf %.3f",
			row.Int("Cluster"), row.Str("Name"), row.Float("P1"))
		if withBounds {
			line += fmt.Sprintf("  (err ≤ %.4f)", row.ErrorBound())
			if row.Singular() {
				line += " SINGULAR"
			}
		}
		fmt.Println(line)
	}
	if res.Len() == 0 {
		fmt.Println("  (none)")
	}
}
