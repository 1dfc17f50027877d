package predapprox

import "testing"

func BenchmarkLinearMargin(b *testing.B) {
	phi := Linear([]float64{1.5, -2, 0.3}, 0.1)
	p := []float64{0.4, 0.2, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi.Margin(p)
	}
}

func BenchmarkAlgebraicMargin(b *testing.B) {
	atom := MustAlgAtom(Sub(Div(Slot(0), Slot(1)), Num(0.5)), 2)
	p := []float64{0.6, 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atom.Margin(p)
	}
}

func BenchmarkCompositeMargin(b *testing.B) {
	phi := OrOf(
		AndOf(Linear([]float64{1, 0}, 0.3), Linear([]float64{0, 1}, 0.2)),
		NotOf(Linear([]float64{1, -1}, 0)),
	)
	p := []float64{0.5, 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi.Margin(p)
	}
}
