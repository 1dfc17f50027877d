package dnf

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/vars"
)

// condition returns F | X=alt: clauses conflicting with the binding are
// dropped; the binding is removed from the rest. It is the one-alternative
// form conditionAll must match, and the reference expansion's step.
func condition(f F, x vars.Var, alt int32) F {
	out := make(F, 0, len(f))
	for _, a := range f {
		if got, ok := a.Get(x); ok {
			if got != alt {
				continue
			}
			out = append(out, a.Without(x))
		} else {
			out = append(out, a)
		}
	}
	return out
}

// TestConditionAllMatchesCondition: conditionAll's sets are condition's,
// clause for clause and in order, for every alternative of the variable
// shannon would expand — a nil set standing for the rest.
func TestConditionAllMatchesCondition(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 3000; trial++ {
		tab := readOnceTable(rng, 1+rng.Intn(8))
		f := randomF(rng, tab, 12, 4)
		x := pickVar(f)
		if rng.Intn(3) == 0 {
			x = vars.Var(rng.Intn(tab.Len())) // possibly free in every clause
		}
		conds, rest := conditionAll(f, x, tab.DomSize(x))
		if !sameClauses(rest, condition(f, x, -1)) {
			t.Fatalf("trial %d: rest of %v on %d = %v", trial, f, x, rest)
		}
		for alt := range conds {
			got := conds[alt]
			if got == nil {
				got = rest
			}
			if want := condition(f, x, int32(alt)); !sameClauses(got, want) {
				t.Fatalf("trial %d: %v | %d=%d = %v, want %v", trial, f, x, alt, got, want)
			}
		}
	}
}

// manyAlternatives is n clauses x=i ∧ y_i=0 over one n+1-alternative x and
// n binary y_i: one component, exclusive on x, weight below 1.
func manyAlternatives(n int) (F, *vars.Table) {
	tab := vars.NewTable()
	probs := make([]float64, n+1)
	for i := range probs {
		probs[i] = 1 / float64(n+1)
	}
	x := tab.Add("x", probs, nil)
	f := make(F, n)
	for i := range f {
		y := tab.Add(fmt.Sprintf("y%d", i), []float64{0.5, 0.5}, nil)
		f[i] = vars.MustAssignment(vars.Binding{Var: x, Alt: int32(i)}, vars.Binding{Var: y})
	}
	return f, tab
}

// TestShannonManyAlternativesLinear: expanding a variable of 1 000
// alternatives costs allocations and bytes linear in |F|. Conditioning on
// one alternative at a time would copy the whole set per alternative: two
// allocations and about 24 KB per clause here.
func TestShannonManyAlternativesLinear(t *testing.T) {
	const n = 1000
	f, tab := manyAlternatives(n)
	want := Confidence(f, tab)
	if want < 0.49 || want > 0.51 {
		t.Fatalf("Confidence = %v, want about 1/2", want)
	}
	if allocs := testing.AllocsPerRun(5, func() { Confidence(f, tab) }); allocs > n/4 {
		t.Errorf("Confidence allocates %.0f objects on %d clauses, want ≤ %d", allocs, n, n/4)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Confidence(f, tab)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 512*n {
		t.Errorf("Confidence allocates %d bytes on %d clauses, want ≤ %d", b, n, 512*n)
	}
}
