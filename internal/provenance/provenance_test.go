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
