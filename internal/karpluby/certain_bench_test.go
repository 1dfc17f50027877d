package karpluby

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dnf"
	"repro/internal/vars"
)

// random3 is n random 3-literal clauses over n fair binary variables: a
// weight sum of about n/8, so dnf.Certain compiles it, and far from
// certain, so its case split runs until the node budget is spent — the
// proof's worst case.
func random3(n int) (dnf.F, *vars.Table) {
	rng := rand.New(rand.NewSource(int64(n)))
	tab := vars.NewTable()
	for i := 0; i < n; i++ {
		tab.Add(fmt.Sprintf("v%d", i), []float64{0.5, 0.5}, nil)
	}
	f := make(dnf.F, 0, n)
	for len(f) < n {
		a, err := vars.NewAssignment(
			vars.Binding{Var: vars.Var(rng.Intn(n)), Alt: int32(rng.Intn(2))},
			vars.Binding{Var: vars.Var(rng.Intn(n)), Alt: int32(rng.Intn(2))},
			vars.Binding{Var: vars.Var(rng.Intn(n)), Alt: int32(rng.Intn(2))})
		if err == nil {
			f = append(f, a)
		}
	}
	return f, tab
}

// BenchmarkCertain measures dnf.Certain on its worst case, a set that is
// not certain, and reports its cost as a share of sampling the same set to
// its flat trial budget at ε = δ = 0.1 (budget-share; the trial cost is
// timed on 200 000 trials of a warmed estimator before the timer starts).
func BenchmarkCertain(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("clauses=%d", n), func(b *testing.B) {
			f, tab := random3(n)
			if dnf.Certain(f, tab) {
				b.Fatal("a random 3-literal set proved certain")
			}
			e, err := NewEstimator(f, tab, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			e.Add(1000)
			const trials = 200_000
			start := time.Now()
			e.Add(trials)
			sample := time.Since(start).Seconds() / trials * float64(TrialsFor(0.1, 0.1, n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dnf.Certain(f, tab)
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/sample, "budget-share")
		})
	}
}
