package dnf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vars"
)

// newTable builds a table of n binary variables with random probabilities.
func newTable(rng *rand.Rand, n int) *vars.Table {
	t := vars.NewTable()
	for i := 0; i < n; i++ {
		p := 0.05 + 0.9*rng.Float64()
		t.Add(varName(i), []float64{p, 1 - p}, nil)
	}
	return t
}

func varName(i int) string {
	return "v" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// randomF builds a random clause set over the table's variables.
func randomF(rng *rand.Rand, t *vars.Table, maxClauses, maxLits int) F {
	nc := 1 + rng.Intn(maxClauses)
	f := make(F, 0, nc)
	for i := 0; i < nc; i++ {
		nl := 1 + rng.Intn(maxLits)
		var bs []vars.Binding
		for j := 0; j < nl; j++ {
			v := vars.Var(rng.Intn(t.Len()))
			bs = append(bs, vars.Binding{Var: v, Alt: int32(rng.Intn(t.DomSize(v)))})
		}
		a, err := vars.NewAssignment(bs...)
		if err != nil {
			continue // conflicting random clause; skip
		}
		f = append(f, a)
	}
	if len(f) == 0 {
		f = append(f, vars.MustAssignment(vars.Binding{Var: 0, Alt: 0}))
	}
	return f
}

func TestConfidenceSingleClause(t *testing.T) {
	tab := vars.NewTable()
	tab.Add("x", []float64{0.3, 0.7}, nil)
	tab.Add("y", []float64{0.5, 0.5}, nil)
	f := F{vars.MustAssignment(vars.Binding{Var: 0, Alt: 0}, vars.Binding{Var: 1, Alt: 1})}
	want := 0.3 * 0.5
	if got := Confidence(f, tab); math.Abs(got-want) > 1e-12 {
		t.Errorf("Confidence = %v, want %v", got, want)
	}
}

func TestConfidenceEdgeCases(t *testing.T) {
	tab := vars.NewTable()
	tab.Add("x", []float64{0.3, 0.7}, nil)
	if got := Confidence(nil, tab); got != 0 {
		t.Errorf("empty F = %v, want 0", got)
	}
	// A clause with the empty assignment is certain.
	f := F{vars.Assignment{}, vars.MustAssignment(vars.Binding{Var: 0, Alt: 0})}
	if got := Confidence(f, tab); got != 1 {
		t.Errorf("F with empty clause = %v, want 1", got)
	}
	// Complementary alternatives of one variable cover everything.
	g := F{
		vars.MustAssignment(vars.Binding{Var: 0, Alt: 0}),
		vars.MustAssignment(vars.Binding{Var: 0, Alt: 1}),
	}
	if got := Confidence(g, tab); math.Abs(got-1) > 1e-12 {
		t.Errorf("complementary clauses = %v, want 1", got)
	}
}

func TestConfidenceIndependentClauses(t *testing.T) {
	tab := vars.NewTable()
	tab.Add("x", []float64{0.3, 0.7}, nil)
	tab.Add("y", []float64{0.4, 0.6}, nil)
	f := F{
		vars.MustAssignment(vars.Binding{Var: 0, Alt: 0}),
		vars.MustAssignment(vars.Binding{Var: 1, Alt: 0}),
	}
	want := 1 - (1-0.3)*(1-0.4)
	if got := Confidence(f, tab); math.Abs(got-want) > 1e-12 {
		t.Errorf("Confidence = %v, want %v", got, want)
	}
}

func TestDedup(t *testing.T) {
	a := vars.MustAssignment(vars.Binding{Var: 0, Alt: 0})
	f := F{a, a, a}
	if got := f.Dedup(); len(got) != 1 {
		t.Errorf("Dedup len = %d", len(got))
	}
	g := F{a, vars.Assignment{}}
	d := g.Dedup()
	if len(d) != 1 || len(d[0]) != 0 {
		t.Errorf("Dedup with empty clause = %v", d)
	}
}

func TestVarsAndTotalWeight(t *testing.T) {
	tab := vars.NewTable()
	tab.Add("x", []float64{0.3, 0.7}, nil)
	tab.Add("y", []float64{0.4, 0.6}, nil)
	f := F{
		vars.MustAssignment(vars.Binding{Var: 1, Alt: 0}),
		vars.MustAssignment(vars.Binding{Var: 0, Alt: 0}, vars.Binding{Var: 1, Alt: 0}),
	}
	vs := f.Vars()
	if len(vs) != 2 || vs[0] != 0 || vs[1] != 1 {
		t.Errorf("Vars = %v", vs)
	}
	want := 0.4 + 0.3*0.4
	if got := f.TotalWeight(tab); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalWeight = %v, want %v", got, want)
	}
}

// The three exact evaluators must agree on random instances.
func TestExactEvaluatorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		tab := newTable(rng, 2+rng.Intn(6))
		f := randomF(rng, tab, 6, 3)
		pS := Confidence(f, tab)
		pE := ConfidenceByEnumeration(f, tab)
		pI := ConfidenceByInclusionExclusion(f, tab)
		if math.Abs(pS-pE) > 1e-9 {
			t.Fatalf("trial %d: shannon %v != enumeration %v (F=%v)", trial, pS, pE, f)
		}
		if math.Abs(pI-pE) > 1e-9 {
			t.Fatalf("trial %d: inclusion-exclusion %v != enumeration %v", trial, pI, pE)
		}
		if pS < -1e-12 || pS > 1+1e-12 {
			t.Fatalf("confidence out of range: %v", pS)
		}
	}
}

// Confidence is monotone: adding a clause can only increase it.
func TestConfidenceMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tab := newTable(rng, 5)
		f := randomF(rng, tab, 4, 3)
		p1 := Confidence(f, tab)
		g := append(f.Clone(), randomF(rng, tab, 1, 3)...)
		p2 := Confidence(g, tab)
		if p2 < p1-1e-9 {
			t.Fatalf("adding a clause decreased confidence: %v -> %v", p1, p2)
		}
	}
}

// Multi-valued variables: the coin-example structure from the paper.
func TestConfidenceMultiValued(t *testing.T) {
	tab := vars.NewTable()
	coin := tab.Add("coin", []float64{2.0 / 3, 1.0 / 3}, []string{"fair", "2headed"})
	t1 := tab.Add("toss1", []float64{0.5, 0.5}, []string{"H", "T"})
	t2 := tab.Add("toss2", []float64{0.5, 0.5}, []string{"H", "T"})
	// Tuple "fair" in T requires coin=fair ∧ toss1=H ∧ toss2=H.
	fFair := F{vars.MustAssignment(
		vars.Binding{Var: coin, Alt: 0},
		vars.Binding{Var: t1, Alt: 0},
		vars.Binding{Var: t2, Alt: 0},
	)}
	if got := Confidence(fFair, tab); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("P(fair,HH) = %v, want 1/6", got)
	}
	// Tuple "2headed" requires only coin=2headed.
	f2h := F{vars.MustAssignment(vars.Binding{Var: coin, Alt: 1})}
	if got := Confidence(f2h, tab); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("P(2headed) = %v, want 1/3", got)
	}
	// π∅(T): some tuple exists — disjunction of both clauses.
	both := F{fFair[0], f2h[0]}
	if got := Confidence(both, tab); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(T nonempty) = %v, want 1/2", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	f := F{vars.MustAssignment(vars.Binding{Var: 0, Alt: 0})}
	g := f.Clone()
	g[0] = g[0].With(1, 1)
	if f[0].Len() != 1 {
		t.Error("Clone not deep")
	}
}

func BenchmarkConfidenceShannon(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tab := newTable(rng, 14)
	f := randomF(rng, tab, 12, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Confidence(f, tab)
	}
}

func BenchmarkConfidenceEnumeration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tab := newTable(rng, 14)
	f := randomF(rng, tab, 12, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConfidenceByEnumeration(f, tab)
	}
}

// ConfidenceByInclusionExclusion computes the confidence via
// inclusion–exclusion over clause subsets: Σ_∅≠S⊆F (−1)^{|S|+1} p_{∧S}.
// Exponential in |F|; used for cross-checks on small clause sets.
func ConfidenceByInclusionExclusion(f F, t *vars.Table) float64 {
	f = f.Dedup()
	n := len(f)
	if n == 0 {
		return 0
	}
	if n > 24 {
		panic("dnf: inclusion-exclusion on too many clauses")
	}
	p := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		inter := vars.Assignment{}
		ok := true
		bits := 0
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			bits++
			inter, ok = inter.Union(f[i])
		}
		if !ok {
			continue // conflicting conjunction has probability 0
		}
		w := inter.Weight(t)
		if bits%2 == 1 {
			p += w
		} else {
			p -= w
		}
	}
	return p
}
