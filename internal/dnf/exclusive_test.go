package dnf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vars"
)

func TestExclusive(t *testing.T) {
	b := func(v vars.Var, alt int32) vars.Binding { return vars.Binding{Var: v, Alt: alt} }
	a := vars.MustAssignment
	for _, c := range []struct {
		name string
		f    F
		want bool
	}{
		{"one clause", F{a(b(0, 0), b(1, 1))}, true},
		{"distinct on x, shared y", F{a(b(0, 0), b(1, 0)), a(b(0, 1), b(1, 0)), a(b(0, 2))}, true},
		{"x shares an alternative", F{a(b(0, 0)), a(b(0, 0), b(1, 1))}, false},
		{"y, not the first variable", F{a(b(0, 0), b(1, 0)), a(b(1, 1)), a(b(1, 2), b(2, 0))}, true},
		{"no common variable", F{a(b(0, 0)), a(b(1, 0))}, false},
		{"x missing from the last clause", F{a(b(0, 0)), a(b(0, 1)), a(b(1, 0))}, false},
		{"wide alternatives, distinct", F{a(b(0, 2000)), a(b(0, 5)), a(b(0, 2001), b(1, 0))}, true},
		{"wide alternatives, shared", F{a(b(0, 2000)), a(b(0, 5)), a(b(0, 2000), b(1, 0))}, false},
	} {
		if got := Exclusive(c.f); got != c.want {
			t.Errorf("%s: Exclusive = %v, want %v", c.name, got, c.want)
		}
	}
}

// exclusiveF draws n clauses over one k-alternative variable 0 (n ≤ k),
// each bound to its own alternative and conjoined with random literals of
// binary variables 1..m.
func exclusiveF(rng *rand.Rand, n, m int) (F, *vars.Table) {
	tab := vars.NewTable()
	probs := make([]float64, n+rng.Intn(3))
	for i := range probs {
		probs[i] = 1 / float64(len(probs))
	}
	tab.Add("x", probs, nil)
	for i := 0; i < m; i++ {
		p := 0.05 + 0.9*rng.Float64()
		tab.Add(varName(i), []float64{p, 1 - p}, nil)
	}
	f := make(F, n)
	for i, alt := range rng.Perm(len(probs))[:n] {
		bs := []vars.Binding{{Var: 0, Alt: int32(alt)}}
		for v := 1; v <= m; v++ {
			if rng.Intn(2) == 0 {
				bs = append(bs, vars.Binding{Var: vars.Var(v), Alt: int32(rng.Intn(2))})
			}
		}
		f[i] = vars.MustAssignment(bs...)
	}
	return f, tab
}

// On exclusive sets the exact confidence is Σ_f p_f, the quantity every
// Karp–Luby trial hits; the check itself allocates nothing.
func TestExclusiveConfidenceIsTotalWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 300; iter++ {
		f, tab := exclusiveF(rng, 1+rng.Intn(12), 1+rng.Intn(5))
		f = f.Dedup()
		if !Exclusive(f) {
			t.Fatalf("iter %d: exclusive set not detected: %v", iter, f)
		}
		if got, want := Confidence(f, tab), f.TotalWeight(tab); math.Abs(got-want) > 1e-12 {
			t.Errorf("iter %d: Confidence %v, Σ p_f %v", iter, got, want)
		}
	}
	f, _ := exclusiveF(rng, 200, 6)
	chain := make(F, 200)
	for i := range chain {
		chain[i] = vars.MustAssignment(vars.Binding{Var: vars.Var(i), Alt: 0}, vars.Binding{Var: vars.Var(i + 1), Alt: 0})
	}
	for name, set := range map[string]F{"exclusive": f, "chain": chain} {
		if n := testing.AllocsPerRun(20, func() { Exclusive(set) }); n != 0 {
			t.Errorf("%s: Exclusive allocates %v times per call", name, n)
		}
	}
}
