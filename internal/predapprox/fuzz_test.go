package predapprox_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/predapprox"
)

// unit maps a fuzzed integer into (0,1], the range of a confidence.
func unit(u uint32) float64 { return (float64(u) + 1) / (1 << 32) }

// FuzzApproxPredicate checks every σ̂ predicate the parser accepts at a
// fuzzed point of (0,1]³: Margin does not panic and lies in [0, EpsMax],
// and the predicate's String parses back to one with bit-identical Eval and
// Margin, so what -explain shows is what the engine decides.
func FuzzApproxPredicate(f *testing.F) {
	for _, s := range []string{
		"p1 >= 0.5",
		"p1 / p2 <= 0.5",
		"p1 >= 0.3 and p1 <= 0.9 or not (p2 < 0.1)",
		"-P3 * 2e-1 > p1 - (1 + p2)",
		"1 / (p1 - 0.5) >= 0",
		"p1 * p2 / 0 < 1.5e+300",
		"p1 + p1 >= 1",
	} {
		f.Add(s, uint32(1<<31), uint32(1<<30), uint32(3<<30))
	}
	f.Fuzz(func(t *testing.T, pred string, a, b, c uint32) {
		if strings.Contains(pred, "]") {
			return // could close the σ̂ early and change its conf arguments
		}
		phi, err := parseShat(pred)
		if err != nil {
			return
		}
		x := []float64{unit(a), unit(b), unit(c)}
		m := phi.Margin(x)
		if !(m >= 0 && m <= predapprox.EpsMax) {
			t.Fatalf("%q: margin %v at %v outside [0, EpsMax]", pred, m, x)
		}
		again, err := parseShat(phi.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", pred, phi, err)
		}
		if again.Eval(x) != phi.Eval(x) || math.Float64bits(again.Margin(x)) != math.Float64bits(m) {
			t.Fatalf("%q renders as %q, which decides differently at %v", pred, phi, x)
		}
	})
}
