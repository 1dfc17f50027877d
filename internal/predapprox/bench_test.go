package predapprox_test

import (
	"testing"

	"repro/internal/predapprox"
)

func BenchmarkLinearMargin(b *testing.B) {
	phi := predapprox.Linear([]float64{1.5, -2, 0.3}, 0.1)
	p := []float64{0.4, 0.2, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi.Margin(p)
	}
}

// benchParsedMargin measures Margin of a parsed σ̂ predicate at p.
func benchParsedMargin(b *testing.B, pred string, p []float64) {
	phi, err := parseShat(pred)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi.Margin(p)
	}
}

// Theorem 5.5's corner search on one comparison: a threshold and the
// paper's ratio.
func BenchmarkAlgebraicMargin(b *testing.B) {
	b.Run("threshold", func(b *testing.B) { benchParsedMargin(b, "p1 >= 0.5", []float64{0.6, 0.4, 0.5}) })
	b.Run("ratio", func(b *testing.B) { benchParsedMargin(b, "p1 / p2 <= 0.5", []float64{0.3, 0.4, 0.5}) })
}

// The ∧/∨/¬ rules over three comparisons.
func BenchmarkCompositeMargin(b *testing.B) {
	benchParsedMargin(b, "p1 >= 0.3 and p2 >= 0.2 or not p1 >= p2", []float64{0.5, 0.4, 0.5})
}
