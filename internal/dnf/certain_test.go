package dnf

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vars"
)

// everyWorld reports whether every world of t extends some clause of f.
func everyWorld(f F, t *vars.Table) bool {
	all := true
	vars.EnumWorlds(t, 1<<20, func(w vars.World, _ float64) {
		for _, a := range f {
			if w.Satisfies(a) {
				return
			}
		}
		all = false
	})
	return all
}

func TestCertainCases(t *testing.T) {
	tab := vars.NewTable()
	x := tab.Add("x", []float64{0.2, 0.3, 0.5}, nil)
	y := tab.Add("y", []float64{0.5, 0.5}, nil)
	one := tab.Add("one", []float64{1}, nil)
	one2 := tab.Add("one2", []float64{1}, nil)
	var wide []vars.Var // seven binary variables
	for i := 0; i < 7; i++ {
		wide = append(wide, tab.Add(fmt.Sprintf("w%d", i), []float64{0.5, 0.5}, nil))
	}
	b := func(v vars.Var, alt int32) vars.Binding { return vars.Binding{Var: v, Alt: alt} }
	a := vars.MustAssignment
	// every2 is every assignment of the seven w's: certain, but its full
	// case split binds 2 + 4 + … + 128 nodes, past the budget.
	var every2 F
	for m := 0; m < 1<<len(wide); m++ {
		var bs []vars.Binding
		for i, v := range wide {
			bs = append(bs, b(v, int32(m>>i&1)))
		}
		every2 = append(every2, a(bs...))
	}
	for _, c := range []struct {
		name string
		f    F
		want bool
	}{
		{"empty set", F{}, false},
		{"empty clause", F{a(b(x, 0)), a()}, true},
		{"one-alternative literals", F{a(b(x, 0)), a(b(one, 0), b(one2, 0))}, true},
		{"one-alternative literal", F{a(b(one, 0))}, true},
		{"every alternative of x", F{a(b(x, 0)), a(b(x, 1)), a(b(x, 2))}, true},
		{"every alternative, one-alternative conjuncts", F{a(b(x, 0), b(one, 0)), a(b(x, 1)), a(b(x, 2), b(one2, 0))}, true},
		{"all but one alternative", F{a(b(x, 0)), a(b(x, 1))}, false},
		{"every pair of x and y", F{
			a(b(x, 0), b(y, 0)), a(b(x, 0), b(y, 1)), a(b(x, 1), b(y, 0)),
			a(b(x, 1), b(y, 1)), a(b(x, 2), b(y, 0)), a(b(x, 2), b(y, 1)),
		}, true},
		{"a pair missing", F{
			a(b(x, 0), b(y, 0)), a(b(x, 0), b(y, 1)), a(b(x, 1), b(y, 0)),
			a(b(x, 2), b(y, 0)), a(b(x, 2), b(y, 1)), a(b(x, 1)), a(b(y, 0)),
		}, true},
		{"x or y, M ≥ 1, not certain", F{a(b(x, 2)), a(b(y, 0)), a(b(x, 1), b(y, 1))}, false},
		{"weight below 1", F{a(b(x, 0)), a(b(y, 0))}, false},
		{"past the budget", every2, false},
		{"past the budget, one clause certain", append(every2[:len(every2):len(every2)], a(b(one, 0))), true},
	} {
		if got := Certain(c.f, tab); got != c.want {
			t.Errorf("%s: Certain = %v, want %v", c.name, got, c.want)
		}
	}
}

// certainF draws a clause set over the table's variables whose lineage
// is often certain: with probability 1/2 it starts from every alternative
// (or every alternative pair) of one or two variables, then drops and adds
// random clauses.
func certainF(rng *rand.Rand, t *vars.Table) F {
	var f F
	n := t.Len()
	if rng.Intn(2) == 0 {
		x, y := vars.Var(rng.Intn(n)), vars.Var(rng.Intn(n))
		for i := 0; i < t.DomSize(x); i++ {
			if x == y {
				f = append(f, vars.MustAssignment(vars.Binding{Var: x, Alt: int32(i)}))
				continue
			}
			for j := 0; j < t.DomSize(y); j++ {
				f = append(f, vars.MustAssignment(vars.Binding{Var: x, Alt: int32(i)}, vars.Binding{Var: y, Alt: int32(j)}))
			}
		}
		if rng.Intn(3) == 0 {
			f = append(f[:0], f[1:]...)
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		f = append(f, randomF(rng, t, 1, 3)...)
	}
	rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	return f
}

// certainTable registers n variables of 1–3 alternatives.
func certainTable(rng *rand.Rand, n int) *vars.Table {
	t := vars.NewTable()
	for i := 0; i < n; i++ {
		probs := make([]float64, 1+rng.Intn(3))
		for j := range probs {
			probs[j] = 1 / float64(len(probs))
		}
		t.Add(varName(i), probs, nil)
	}
	return t
}

// TestCertainMatchesWorlds: Certain never proves a set some world escapes,
// and over at most three variables of at most three alternatives — a full
// case split of at most 3 + 9 + 27 nodes, inside the budget — it proves
// every set every world extends. It decides a set and its shuffle alike.
func TestCertainMatchesWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	proved, certain := 0, 0
	for trial := 0; trial < 20000; trial++ {
		small := trial%2 == 0
		n := 1 + rng.Intn(3)
		if !small {
			n = 4 + rng.Intn(5)
		}
		tab := certainTable(rng, n)
		f := certainF(rng, tab).Dedup()
		got, want := Certain(f, tab), everyWorld(f, tab)
		if got && !want {
			t.Fatalf("trial %d: Certain proved %v, which some world escapes", trial, f)
		}
		if small && got != want {
			t.Fatalf("trial %d: Certain(%v) = %v on a small table, want %v", trial, f, got, want)
		}
		g := append(F(nil), f...)
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		if Certain(g, tab) != got {
			t.Fatalf("trial %d: Certain(%v) = %v, but %v on its shuffle %v", trial, f, got, !got, g)
		}
		if want {
			certain++
		}
		if got {
			proved++
		}
	}
	t.Logf("%d certain sets, %d proved", certain, proved)
	if certain < 4000 || proved < certain*9/10 {
		t.Errorf("generator too tame or proof too weak: %d certain sets, %d proved", certain, proved)
	}
}

// random3 is n random 3-literal clauses over n fair binary variables: a
// weight sum of n/8, so Certain compiles it, and far from certain, so the
// case split runs until the budget is spent.
func random3(n int) (F, *vars.Table) {
	rng := rand.New(rand.NewSource(int64(n)))
	tab := vars.NewTable()
	for i := 0; i < n; i++ {
		tab.Add(fmt.Sprintf("v%d", i), []float64{0.5, 0.5}, nil)
	}
	f := make(F, 0, n)
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

// TestCertainAllocsConstant: one allocation per call, whatever |F|, on the
// worst case — a set that compiles and spends the whole budget.
func TestCertainAllocsConstant(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		f, tab := random3(n)
		if Certain(f, tab) {
			t.Fatalf("|F| = %d: a random 3-literal set proved certain", n)
		}
		if allocs := testing.AllocsPerRun(3, func() { Certain(f, tab) }); allocs != 1 {
			t.Errorf("|F| = %d: Certain allocates %v objects per call, want 1", n, allocs)
		}
	}
}
