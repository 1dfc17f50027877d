package dnf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vars"
)

// ConfidenceNoFactoring computes the exact confidence by memoized Shannon
// expansion on the whole clause set, without the independent-component
// factoring. It is the ablation baseline for the factoring optimization;
// results are identical, only cost differs.
func ConfidenceNoFactoring(f F, t *vars.Table) float64 {
	f = f.Dedup()
	if len(f) == 0 {
		return 0
	}
	if len(f[0]) == 0 {
		return 1
	}
	return shannon(f, t, make(map[setKey]float64))
}

// Factoring changes cost, never results.
func TestFactoringAblationSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		tab := newTable(rng, 2+rng.Intn(6))
		f := randomF(rng, tab, 6, 3)
		a := Confidence(f, tab)
		b := ConfidenceNoFactoring(f, tab)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("trial %d: factored %v vs unfactored %v", trial, a, b)
		}
	}
}

// independentInstance builds k disjoint single-variable clauses — the
// best case for component factoring.
func independentInstance(k int) (F, *vars.Table) {
	tab := vars.NewTable()
	f := make(F, 0, k)
	for i := 0; i < k; i++ {
		v := tab.Add(varName(i), []float64{0.5, 0.5}, nil)
		f = append(f, vars.MustAssignment(vars.Binding{Var: v, Alt: 0}))
	}
	return f, tab
}

func TestFactoringIndependentClauses(t *testing.T) {
	f, tab := independentInstance(20)
	// 1 − (1/2)^20 — factoring handles this instantly; unfactored Shannon
	// expansion would visit an exponential number of residual sets
	// without memo hits, so only the factored version is exercised at
	// this size.
	want := 1 - math.Pow(0.5, 20)
	if got := Confidence(f, tab); math.Abs(got-want) > 1e-12 {
		t.Errorf("Confidence = %v, want %v", got, want)
	}
}

func BenchmarkConfidenceFactoring(b *testing.B) {
	f, tab := independentInstance(14)
	b.Run("factored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Confidence(f, tab)
		}
	})
	b.Run("unfactored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ConfidenceNoFactoring(f, tab)
		}
	})
}
