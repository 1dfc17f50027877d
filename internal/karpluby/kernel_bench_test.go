package karpluby

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dnf"
	"repro/internal/vars"
)

// rand30x4 is 30 random 4-literal clauses over 20 fair binary variables.
func rand30x4() (dnf.F, *vars.Table) {
	rng := rand.New(rand.NewSource(1))
	tab := vars.NewTable()
	for i := 0; i < 20; i++ {
		tab.Add("v"+string(rune('a'+i)), []float64{0.5, 0.5}, nil)
	}
	var f dnf.F
	for c := 0; c < 30; c++ {
		var bs []vars.Binding
		for l := 0; l < 4; l++ {
			bs = append(bs, vars.Binding{Var: vars.Var(rng.Intn(20)), Alt: int32(rng.Intn(2))})
		}
		if a, err := vars.NewAssignment(bs...); err == nil {
			f = append(f, a)
		}
	}
	return f, tab
}

// chain16 is the lineage shape of the end-to-end benchmark's conf-flat
// workload (consecutive hot epochs of one sensor): 17 two-alternative
// variables, clause i asserting x_i = 0 ∧ x_{i+1} = 0, so neighbouring
// clauses share a variable and nothing factors.
func chain16() (dnf.F, *vars.Table) {
	rng := rand.New(rand.NewSource(2))
	tab := vars.NewTable()
	for i := 0; i < 17; i++ {
		p := 0.3 + 0.4*rng.Float64()
		tab.Add(fmt.Sprintf("x%02d", i), []float64{p, 1 - p}, nil)
	}
	f := make(dnf.F, 16)
	for i := range f {
		f[i] = vars.MustAssignment(vars.Binding{Var: vars.Var(i)}, vars.Binding{Var: vars.Var(i + 1)})
	}
	return f, tab
}

var trialShapes = []struct {
	name string
	gen  func() (dnf.F, *vars.Table)
}{
	{"rand30x4", rand30x4},
	{"chain16", chain16},
	{"clauses=10000", func() (dnf.F, *vars.Table) { return benchSkewF(rand.New(rand.NewSource(17)), 64, 10_000) }},
}

// BenchmarkEstimatorBuild measures NewEstimator — dedup plus the compile
// step — which every estimation task pays once per evaluation (a σ̂
// restart keeps its tasks) and every shard-side task rebuild pays again.
func BenchmarkEstimatorBuild(b *testing.B) {
	for _, bc := range trialShapes {
		b.Run(bc.name, func(b *testing.B) {
			f, tab := bc.gen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewEstimator(f, tab, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimatorTrial measures one steady-state Definition 4.1 trial
// on a warmed estimator — the unit every layer above the sampler
// multiplies.
func BenchmarkEstimatorTrial(b *testing.B) {
	for _, bc := range trialShapes {
		b.Run(bc.name, func(b *testing.B) {
			f, tab := bc.gen()
			e, err := NewEstimator(f, tab, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			e.Add(1000)
			b.ReportAllocs()
			b.ResetTimer()
			e.Add(b.N)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}
