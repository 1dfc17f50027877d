package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/algebra"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/provenance"
	"repro/internal/stats"
	"repro/internal/urel"
	"repro/internal/workload"
)

// E9ProvenanceBounds validates Lemma 6.4 and Example 6.5: membership
// errors of σ̂ outputs propagate through positive relational algebra by
// summation over provenance, so a projection with fan-in n carries a bound
// ≈ n·µ, and measured flip rates stay below the reported bounds.
func E9ProvenanceBounds(w io.Writer, cfg Config) (Summary, error) {
	s := newSummary("E9")
	rng := rand.New(rand.NewSource(cfg.Seed))
	reps := cfg.scale(40, 10)
	const eps0, delta = 0.05, 0.1

	fmt.Fprintln(w, "Example 6.5 fan-in: π_C(σ̂_{conf ≥ 0.5}(R)) over n multi-clause tuples")
	fmt.Fprintf(w, "(ε₀=%.2f, per-query δ=%.2f; bounds are per result tuple)\n", eps0, delta)
	tbl := stats.NewTable(w, "n", "mean per-tuple bound µ", "fan-in bound", "≈ n·µ", "measured flip rate")
	for _, n := range []int{1, 2, 4, 8} {
		var fanIn, perTuple, flips []float64
		for r := 0; r < reps; r++ {
			seed := rng.Int63()
			db := workload.MultiClause(rand.New(rand.NewSource(seed)), "R", n, 3, 4, 2)
			sel := algebra.ApproxSelect{
				In:   algebra.Base{Name: "R"},
				Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
				Pred: predapprox.Linear([]float64{1}, 0.5),
			}
			proj := algebra.Project{In: sel, Targets: []expr.Target{expr.As("C", expr.CInt(1))}}

			// Fix the round budget so bounds are comparable across runs.
			opts := core.Options{Eps0: eps0, Delta: delta, Seed: seed, InitialRounds: 256, MaxRounds: 256}
			selRes, err := cfg.eval(db, opts, sel)
			if err != nil {
				return s, err
			}
			for row, mu := range selRes.Bounds.All() {
				if mu > 0 {
					perTuple = append(perTuple, selRes.TupleError(row))
				}
			}
			projRes, err := cfg.eval(db, opts, proj)
			if err != nil {
				return s, err
			}
			var pb float64
			for row := range projRes.Bounds.All() {
				pb = projRes.TupleError(row)
			}
			fanIn = append(fanIn, pb)

			// Measured flip: does the approximate projected result differ
			// from the exact one?
			exact, err := algebra.NewURelEvaluator(db).Eval(proj)
			if err != nil {
				return s, err
			}
			if urel.Poss(exact.Rel).Equal(urel.Poss(projRes.Rel)) {
				flips = append(flips, 0)
			} else {
				flips = append(flips, 1)
			}
		}
		mu := stats.Mean(perTuple)
		tbl.Row(n, mu, stats.Mean(fanIn), float64(n)*mu, stats.Mean(flips))
		s.Values[fmt.Sprintf("fanin_bound_n%d", n)] = stats.Mean(fanIn)
		s.Values[fmt.Sprintf("flip_rate_n%d", n)] = stats.Mean(flips)
	}
	tbl.Flush()

	// Proposition 6.6 closed form for this query shape.
	l := provenance.RoundsForProposition66(1, 1, 8, eps0, delta)
	fmt.Fprintf(w, "\nProposition 6.6: l₀ = %d rounds guarantee the overall bound %.3g ≤ δ for k=1, d=1, n=8.\n",
		l, provenance.Proposition66Bound(1, 1, 8, eps0, l))
	s.Values["prop66_rounds"] = float64(l)
	return s, nil
}

// E10QueryApprox is the end-to-end Theorem 6.7 experiment: approximate
// evaluation of a σ̂ query doubling its own l achieves per-tuple
// error ≤ δ on non-singular tuples, in time polynomial in the database
// size, and the adaptive margin-based ε saves work against running
// directly at the Proposition 6.6 round bound l₀.
func E10QueryApprox(w io.Writer, cfg Config) (Summary, error) {
	s := newSummary("E10")
	rng := rand.New(rand.NewSource(cfg.Seed))
	const eps0, delta = 0.05, 0.1
	reps := cfg.scale(12, 4)
	sizes := []int{4, 8, 16, 32}
	if cfg.Quick {
		sizes = []int{4, 8, 16}
	}

	fmt.Fprintf(w, "σ̂_{conf[ID] ≥ 0.5}(R) over multi-clause databases (ε₀=%.2f, δ=%.2f):\n", eps0, delta)
	tbl := stats.NewTable(w, "n tuples", "ms/query", "final l", "sampled trials", "reused trials", "membership err rate", "max bound", "naive l₀ trials ×")
	var msPerN []float64
	for _, n := range sizes {
		var ms, finalL, trials, reused, errRate, bounds, naiveRatio []float64
		for r := 0; r < reps; r++ {
			seed := rng.Int63()
			db := workload.MultiClause(rand.New(rand.NewSource(seed)), "R", n, 3, 4, 2)
			q := algebra.ApproxSelect{
				In:   algebra.Base{Name: "R"},
				Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
				Pred: predapprox.Linear([]float64{1}, 0.5),
			}
			exact, err := algebra.NewURelEvaluator(db).EvalContext(cfg.ctx(), q)
			if err != nil {
				return s, err
			}
			exactIDs := urel.Poss(exact.Rel).Project("ID")

			t0 := time.Now()
			res, err := cfg.eval(db, core.Options{Eps0: eps0, Delta: delta, Seed: seed}, q)
			if err != nil {
				return s, err
			}
			ms = append(ms, float64(time.Since(t0).Microseconds())/1000)
			finalL = append(finalL, float64(res.Stats.FinalRounds))
			trials = append(trials, float64(res.Stats.EstimatorTrials))
			reused = append(reused, float64(res.Stats.ReusedTrials))
			bounds = append(bounds, res.MaxNonSingularError())

			// Membership error rate over non-singular decisions: compare
			// ID sets, ignoring tuples flagged singular.
			approxIDs := urel.Poss(res.Rel).Project("ID")
			wrong := 0.0
			if !approxIDs.Equal(exactIDs) {
				wrong = 1
			}
			if flagged(res) {
				wrong = 0 // excluded by Theorem 6.7's non-singularity premise
			}
			errRate = append(errRate, wrong)

			// Naive cost: running every estimator at the Proposition 6.6
			// round bound l₀ directly. The adaptive side counts sampled +
			// reused trials — all the trials its estimates rest on — so
			// the ratio is cache-independent.
			l0 := provenance.RoundsForProposition66(1, 1, n, eps0, delta)
			approxTrials := res.Stats.EstimatorTrials + res.Stats.ReusedTrials
			if approxTrials > 0 {
				naiveTrials := float64(l0) * float64(4*n) // 4 clauses per tuple
				naiveRatio = append(naiveRatio, naiveTrials/float64(approxTrials))
			}
		}
		tbl.Row(n, stats.Mean(ms), stats.Mean(finalL), stats.Mean(trials), stats.Mean(reused), stats.Mean(errRate), stats.Max(bounds), stats.Mean(naiveRatio))
		msPerN = append(msPerN, stats.Mean(ms))
		s.Values[fmt.Sprintf("err_rate_n%d", n)] = stats.Mean(errRate)
		s.Values[fmt.Sprintf("max_bound_n%d", n)] = stats.Max(bounds)
	}
	tbl.Flush()
	s.Values["delta"] = delta

	// Polynomial-shape check: time ratio between the largest and smallest
	// instance should be far below the exponential ratio 2^(Δn).
	if len(msPerN) >= 2 && msPerN[0] > 0 {
		ratio := msPerN[len(msPerN)-1] / msPerN[0]
		s.Values["time_ratio_largest_over_smallest"] = ratio
		fmt.Fprintf(w, "\nRuntime grew %.1f× from n=%d to n=%d (size grew %d×): polynomial shape, per Theorem 6.7.\n",
			ratio, sizes[0], sizes[len(sizes)-1], sizes[len(sizes)-1]/sizes[0])
	}

	// Conditional-probability σ̂ (Example 6.1 shape) end to end on the
	// coin database.
	db := CoinDatabase()
	q := condProbQuery()
	res, err := cfg.eval(db, core.Options{Eps0: 0.05, Delta: 0.1, Seed: 1}, q)
	if err != nil {
		return s, err
	}
	out := urel.Poss(res.Rel)
	fmt.Fprintln(w, "\nExample 6.1: σ̂_{conf[CoinType]/conf[∅] ≤ 0.5}(T) on the coin database:")
	for _, tp := range out.Sorted() {
		fmt.Fprintf(w, "  %s  (bound %.4f)\n", tp, res.TupleError(tp))
	}
	s.Values["cond_prob_selected"] = float64(out.Len())
	if out.Len() == 1 {
		s.Values["cond_prob_is_fair"] = boolToF(out.Value(out.Tuples()[0], "CoinType").AsString() == "fair")
	}
	return s, nil
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// condProbQuery builds σ̂_{conf[CoinType]/conf[∅] ≤ 0.5}(T) with T from
// Example 2.2.
func condProbQuery() algebra.Query {
	return conformance.CoinQuery(2, algebra.ApproxSelect{
		In:   algebra.Base{Name: "T"},
		Args: []algebra.ConfArg{{Attrs: []string{"CoinType"}}, {Attrs: nil}},
		Pred: predapprox.Linear([]float64{-1, 0.5}, 0), // P1/P2 ≤ 0.5
	})
}
