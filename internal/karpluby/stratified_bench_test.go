package karpluby

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dnf"
	"repro/internal/vars"
)

// benchSkewF draws nc distinct positive-literal clauses over nVars
// variables whose presence probabilities span four decades. Positive
// literals keep the clause-weight skew real (a negated rare literal has
// weight ≈ 1, which flattens the mass distribution): total clause mass
// concentrates in a few heavy clauses, the regime stratification and
// empirical-Bernstein stopping exist for.
func benchSkewF(rng *rand.Rand, nVars, nc int) (dnf.F, *vars.Table) {
	tab := vars.NewTable()
	for i := 0; i < nVars; i++ {
		p := math.Pow(10, -4*rng.Float64())
		if p >= 1 {
			p = 0.999
		}
		tab.Add(fmt.Sprintf("b%d", i), []float64{p, 1 - p}, nil)
	}
	f := make(dnf.F, 0, nc)
	seen := map[string]bool{}
	for len(f) < nc {
		nl := 1 + rng.Intn(3)
		var bs []vars.Binding
		for l := 0; l < nl; l++ {
			bs = append(bs, vars.Binding{Var: vars.Var(rng.Intn(nVars)), Alt: 0})
		}
		a, err := vars.NewAssignment(bs...)
		if err != nil {
			continue
		}
		if k := a.Key(); !seen[k] {
			seen[k] = true
			f = append(f, a)
		}
	}
	return f, tab
}

// BenchmarkStratifiedLargeF runs the full adaptive stratified loop on
// large skewed clause sets at a fixed (ε, δ). Budget is the stratum-blind
// Chernoff trial count the flat FPRAS would spend on the same input —
// the flat estimator's stopping rule is exactly that bound, so
// budget/sampled is the trial savings of stratification. The savings
// floor itself is asserted by TestStratifiedTrialSavings; the benchmark
// records the numbers for the trajectory baseline.
func BenchmarkStratifiedLargeF(b *testing.B) {
	for _, nc := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("clauses=%d", nc), func(b *testing.B) {
			nVars := 64
			if nc > 40_000 {
				nVars = 256 // enough distinct ≤3-literal clauses
			}
			f, tab := benchSkewF(rand.New(rand.NewSource(17)), nVars, nc)
			b.ResetTimer()
			var last AdaptiveResult
			for i := 0; i < b.N; i++ {
				res, err := EstimateAdaptive(f, tab, AdaptiveOptions{
					MaxStrata: 16, Eps: 0.1, Delta: 0.05, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Sampled), "trials")
			b.ReportMetric(float64(last.Budget), "flat-trials")
			if last.Sampled > 0 {
				b.ReportMetric(float64(last.Budget)/float64(last.Sampled), "savings-x")
			}
		})
	}
}

// BenchmarkStratifiedVsFlat compares both estimators end to end on an
// input small enough that the flat path finishes live: the flat
// estimator steps to its Chernoff bound, the stratified loop to the
// empirical-Bernstein one, both at the same (ε, δ).
func BenchmarkStratifiedVsFlat(b *testing.B) {
	const nc, eps, delta = 512, 0.1, 0.05
	f, tab := benchSkewF(rand.New(rand.NewSource(23)), 48, nc)

	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := NewEstimator(f, tab, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				b.Fatal(err)
			}
			e.Add(int(TrialsFor(eps, delta, e.ClauseCount())))
		}
		b.ReportMetric(float64(TrialsFor(eps, delta, len(f))), "trials")
	})
	b.Run("stratified", func(b *testing.B) {
		var last AdaptiveResult
		for i := 0; i < b.N; i++ {
			res, err := EstimateAdaptive(f, tab, AdaptiveOptions{
				MaxStrata: 16, Eps: eps, Delta: delta, Seed: int64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(float64(last.Sampled), "trials")
	})
}

// TestStratifiedTrialSavings is the acceptance check behind
// BenchmarkStratifiedLargeF: on 10⁴ skewed clauses at (ε=0.1, δ=0.05),
// the stratified adaptive loop must finish with at least 2× fewer trials
// than the flat FPRAS budget for the same guarantee.
func TestStratifiedTrialSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("samples tens of thousands of trials")
	}
	f, tab := benchSkewF(rand.New(rand.NewSource(17)), 64, 10_000)
	res, err := EstimateAdaptive(f, tab, AdaptiveOptions{
		MaxStrata: 16, Eps: 0.1, Delta: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == 0 {
		t.Fatal("adaptive loop sampled nothing")
	}
	savings := float64(res.Budget) / float64(res.Sampled)
	t.Logf("clauses=%d strata=%d sampled=%d flat budget=%d savings=%.1fx waves=%d",
		len(f), res.Strata, res.Sampled, res.Budget, savings, res.Waves)
	if savings < 2 {
		t.Errorf("stratified loop sampled %d trials vs flat budget %d — %.2fx savings, want ≥ 2x",
			res.Sampled, res.Budget, savings)
	}
}
