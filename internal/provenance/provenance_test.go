package provenance

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeltaPrime(t *testing.T) {
	if DeltaPrime(0.1, 0) != 1 {
		t.Error("zero rounds must give trivial bound")
	}
	// δ'(ε, l) = 2e^{−lε²/3} (below the clamp).
	want := 2 * math.Exp(-2000*0.01/3)
	if got := DeltaPrime(0.1, 2000); math.Abs(got-want) > 1e-12 {
		t.Errorf("DeltaPrime = %v, want %v", got, want)
	}
	if DeltaPrime(0.01, 1) != 1 {
		t.Error("bound must clamp at 1")
	}
}

func TestRoundsForInverts(t *testing.T) {
	f := func(e, d uint8) bool {
		eps := 0.01 + float64(e%200)/250
		target := 0.001 + float64(d%200)/250
		l := RoundsFor(eps, target)
		return DeltaPrime(eps, l) <= target+1e-12 && (l <= 1 || DeltaPrime(eps, l-1) >= target*(1-1e-9))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProposition66Bound(t *testing.T) {
	// k·d·n^{k·d}·δ'(ε₀,l): spot check and monotonicity.
	b := Proposition66Bound(2, 1, 10, 0.1, 10000)
	want := 2 * 1 * math.Pow(10, 2) * DeltaPrime(0.1, 10000)
	if math.Abs(b-want) > 1e-9*want {
		t.Errorf("bound = %v, want %v", b, want)
	}
	if Proposition66Bound(2, 2, 10, 0.1, 10000) <= b {
		t.Error("deeper nesting must weaken the bound")
	}
	// RoundsForProposition66 pushes the bound below δ.
	l := RoundsForProposition66(2, 1, 10, 0.1, 0.05)
	if got := Proposition66Bound(2, 1, 10, 0.1, l); got > 0.05+1e-9 {
		t.Errorf("bound after l₀ rounds = %v > δ", got)
	}
}

// Theorem 6.7's l₀ stays positive and grows with k, d, n and 1/ε₀ where
// n^{k·d} or the final l leaves float64 or int64 range: it saturates at
// math.MaxInt64 instead of wrapping to a negative count.
func TestRoundsForProposition66Saturates(t *testing.T) {
	type args struct {
		k, d, n int
		eps0    float64
	}
	cases := []args{
		{2, 30, 1_000_000, 0.1}, // n^{k·d} = +Inf
		{4, 20, 10_000, 0.1},    // n^{k·d} = +Inf
		{1, 1, 100, 1e-9},       // l beyond int64
		{1, 1, 100, 0.1},
	}
	if got := RoundsForProposition66(1, 1, 100, 1e-9, 0.1); got != math.MaxInt64 {
		t.Errorf("ε₀ = 1e-9 over 100 cells: l₀ = %d, want saturation at %d", got, int64(math.MaxInt64))
	}
	for _, a := range cases {
		l := RoundsForProposition66(a.k, a.d, a.n, a.eps0, 0.1)
		if l <= 0 {
			t.Errorf("%+v: l₀ = %d, want positive", a, l)
		}
		// Raising any one argument (or 1/ε₀) never lowers l₀.
		for _, b := range []args{{a.k + 1, a.d, a.n, a.eps0}, {a.k, a.d + 1, a.n, a.eps0},
			{a.k, a.d, 10 * a.n, a.eps0}, {a.k, a.d, a.n, a.eps0 / 10}} {
			if lb := RoundsForProposition66(b.k, b.d, b.n, b.eps0, 0.1); lb < l {
				t.Errorf("%+v: l₀ = %d, below %d at %+v", b, lb, l, a)
			}
		}
	}
}
