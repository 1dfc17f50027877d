package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/stats"
	"repro/internal/urel"
	"repro/internal/workload"
)

// E6LinearEpsilon validates Theorem 5.2: the closed-form ε for random
// linear inequalities coincides with the brute-force maximal homogeneous
// orthotope, and the Boolean-combination rules stay sound.
func E6LinearEpsilon(w io.Writer, cfg Config) (Summary, error) {
	s := newSummary("E6")
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := cfg.scale(400, 80)

	var diffs []float64
	clamped := 0
	for i := 0; i < trials; i++ {
		k := 1 + rng.Intn(3)
		coef := make([]float64, k)
		for j := range coef {
			coef[j] = rng.Float64()*4 - 2
		}
		phi := predapprox.Linear(coef, rng.Float64()*1.2-0.6)
		p := make([]float64, k)
		for j := range p {
			p[j] = 0.1 + 0.8*rng.Float64()
		}
		got := phi.Margin(p)
		if got >= predapprox.EpsMax-1e-6 {
			clamped++
			continue
		}
		bf := predapprox.BruteForceMargin(phi, p, 0.004, 6)
		diffs = append(diffs, math.Abs(got-bf))
	}
	fmt.Fprintf(w, "Theorem 5.2 closed form vs brute force (%d random linear atoms, %d clamped at ε≈1):\n", trials, clamped)
	tbl := stats.NewTable(w, "mean |diff|", "p95 |diff|", "max |diff|", "grid step")
	tbl.Row(stats.Mean(diffs), stats.Quantile(diffs, 0.95), stats.Max(diffs), 0.004)
	tbl.Flush()
	s.Values["max_diff"] = stats.Max(diffs)
	s.Values["mean_diff"] = stats.Mean(diffs)

	// Boolean combinations: soundness rate of the composed margin.
	unsound := 0
	boolTrials := cfg.scale(300, 60)
	for i := 0; i < boolTrials; i++ {
		mk := func() expr.Pred { // a₁·p1 + a₂·p2 ≥ b
			a1, a2 := expr.CFloat(rng.Float64()*4-2), expr.CFloat(rng.Float64()*4-2)
			lhs := expr.Add(expr.Mul(a1, expr.A("p1")), expr.Mul(a2, expr.A("p2")))
			return expr.Ge(lhs, expr.CFloat(rng.Float64()*1.2-0.6))
		}
		var tree expr.Pred
		if rng.Intn(2) == 0 {
			tree = expr.AndOf(mk(), mk())
		} else {
			tree = expr.OrOf(mk(), expr.NotOf(mk()))
		}
		phi, err := predapprox.FromExpr(tree, 2)
		if err != nil {
			return s, err
		}
		p := []float64{0.1 + 0.8*rng.Float64(), 0.1 + 0.8*rng.Float64()}
		m := phi.Margin(p)
		if m <= 1e-9 {
			continue
		}
		bf := predapprox.BruteForceMargin(phi, p, 0.004, 8)
		if m > bf+0.012 && m < predapprox.EpsMax-1e-6 {
			unsound++
		}
	}
	fmt.Fprintf(w, "\nBoolean combinations (min/max rules): %d/%d margins exceeded the brute-force radius.\n", unsound, boolTrials)
	s.Values["bool_unsound"] = float64(unsound)
	return s, nil
}

// E7CornerPoint validates Theorem 5.5: for single-occurrence algebraic
// predicates, corner agreement implies orthotope homogeneity; the
// binary-search margin is both sound (grid-verified) and maximal.
func E7CornerPoint(w io.Writer, cfg Config) (Summary, error) {
	s := newSummary("E7")
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := cfg.scale(250, 50)

	p1, p2, p3 := expr.A("p1"), expr.A("p2"), expr.A("p3")
	mk := []func() (expr.Pred, int){
		func() (expr.Pred, int) { return expr.Ge(expr.Mul(p1, p2), expr.CFloat(0.05+0.3*rng.Float64())), 2 },
		func() (expr.Pred, int) { return expr.Ge(expr.Div(p1, p2), expr.CFloat(0.3+rng.Float64())), 2 },
		func() (expr.Pred, int) {
			return expr.Ge(expr.Add(expr.Mul(p1, p2), p3), expr.CFloat(0.2+0.6*rng.Float64())), 3
		},
	}
	unsound, nontrivial := 0, 0
	var margins []float64
	for i := 0; i < trials; i++ {
		f, k := mk[rng.Intn(len(mk))]()
		atom, err := predapprox.FromExpr(f, k)
		if err != nil {
			return s, err
		}
		p := make([]float64, k)
		for j := range p {
			p[j] = 0.15 + 0.7*rng.Float64()
		}
		m := atom.Margin(p)
		margins = append(margins, m)
		if m <= 1e-6 || m >= predapprox.EpsMax-1e-6 {
			continue
		}
		nontrivial++
		if !predapprox.OrthotopeHomogeneous(atom, p, m*0.98, 7) {
			unsound++
		}
	}
	fmt.Fprintf(w, "Theorem 5.5 corner-point margins (%d random algebraic atoms):\n", trials)
	tbl := stats.NewTable(w, "nontrivial margins", "grid-verified unsound", "mean margin", "median margin")
	tbl.Row(nontrivial, unsound, stats.Mean(margins), stats.Quantile(margins, 0.5))
	tbl.Flush()
	s.Values["unsound"] = float64(unsound)
	s.Values["nontrivial"] = float64(nontrivial)
	return s, nil
}

// E8Singularity reproduces the singularity discussion (Definition 5.6,
// Example 5.7, Remark 5.3) on the engine's σ̂: the cost of the Figure 3
// stopping rule blows up as the true value approaches the decision
// boundary until the ε₀ floor bounds it, tuples off the boundary are still
// kept at rate ≥ 1 − δ, and the certainty test conf = 1 is flagged
// singular for every ε₀.
func E8Singularity(w io.Writer, cfg Config) (Summary, error) {
	s := newSummary("E8")
	rng := rand.New(rand.NewSource(cfg.Seed))
	const eps0, delta = 0.02, 0.1
	reps := cfg.scale(25, 8)
	phi := predapprox.Linear([]float64{1}, 0.5)

	fmt.Fprintf(w, "Figure 3 cost vs distance to the boundary (φ: p ≥ 0.5, ε₀=%.2f, δ=%.2f):\n", eps0, delta)
	tbl := stats.NewTable(w, "p − c", "true margin", "mean final l", "mean trials", "kept rate", "flag rate")
	for _, gap := range []float64{0.2, 0.1, 0.05, 0.02, 0.005, 0.0} {
		p := 0.5 + gap
		// conf[] over two independent tuples of probability a each:
		// p = 1−(1−a)².
		a := 1 - math.Sqrt(1-p)
		db := workload.TupleIndependent("R", []float64{a, a})
		var rounds, trials, kept, flags []float64
		for r := 0; r < reps; r++ {
			res, err := cfg.eval(db, core.Options{Eps0: eps0, Delta: delta, Seed: rng.Int63()}, shat(phi))
			if err != nil {
				return s, err
			}
			rounds = append(rounds, float64(res.Stats.FinalRounds))
			trials = append(trials, float64(res.Stats.EstimatorTrials))
			kept = append(kept, boolToF(res.Rel.Len() > 0))
			flags = append(flags, boolToF(flagged(res)))
		}
		tbl.Row(gap, phi.Margin([]float64{p}), stats.Mean(rounds), stats.Mean(trials), stats.Mean(kept), stats.Mean(flags))
		s.Values[fmt.Sprintf("kept_rate_gap%g", gap)] = stats.Mean(kept)
		if gap == 0 {
			s.Values["rounds_at_boundary"] = stats.Mean(rounds)
			s.Values["flag_rate_at_boundary"] = stats.Mean(flags)
		}
	}
	tbl.Flush()
	s.Values["delta"] = delta

	// Example 5.7: conf = 1 is a singularity for every ε₀.
	db := urel.NewDatabase()
	db.AddComplete("R", rel.FromRows(rel.NewSchema("ID"), rel.Tuple{rel.Int(0)}))
	all := true
	for _, e := range []float64{0.001, 0.01, 0.1} {
		res, err := cfg.eval(db, core.Options{Eps0: e, Delta: delta, Seed: cfg.Seed}, shat(predapprox.Linear([]float64{1}, 1)))
		if err != nil {
			return s, err
		}
		all = all && flagged(res)
	}
	fmt.Fprintf(w, "\nExample 5.7: σ̂_{p ≥ 1} over a certain tuple is flagged an ε₀-singularity for all tested ε₀: %v\n", all)
	s.Values["certainty_always_singular"] = boolToF(all)
	return s, nil
}
