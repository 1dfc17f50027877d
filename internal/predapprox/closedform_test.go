package predapprox_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/predapprox"
)

// TestClosedFormMatchesCornerSearch runs predGen's comparisons through both
// margins at random points and on their boundaries: wherever f is affine in
// the slots, Theorem 5.2's closed form must agree with Theorem 5.5's corner
// search, and Margin must be the closed form.
func TestClosedFormMatchesCornerSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := predGen{rng}
	folded, worst := 0, 0.0
	for i := 0; i < 20000; i++ {
		text := g.atom()
		phi, err := parseShat(text)
		if err != nil {
			continue
		}
		pts := append([][]float64{unitPoint(rng), unitPoint(rng)}, boundary(phi, rng)...)
		for _, x := range pts {
			cf, ok := predapprox.ClosedForm(phi, x)
			if !ok {
				continue
			}
			folded++
			if m := phi.Margin(x); math.Float64bits(m) != math.Float64bits(cf) {
				t.Fatalf("%s at %v: Margin %v is not the closed form %v", text, x, m, cf)
			}
			gap := math.Abs(cf - predapprox.CornerMargin(phi, x))
			if gap > 1e-10 {
				t.Errorf("%s at %v: closed form %v, corner search %v", text, x, cf, predapprox.CornerMargin(phi, x))
			}
			worst = math.Max(worst, gap)
		}
	}
	if folded < 20000 {
		t.Fatalf("only %d affine comparison points", folded)
	}
	t.Logf("%d affine comparison points, largest gap %.3g", folded, worst)
}

// Comparisons whose f is constant in the slots, or whose fold is not
// finite, keep the corner search: the closed form would call 0 >= 0 a
// boundary everywhere.
func TestClosedFormFallsBack(t *testing.T) {
	x := []float64{0.3, 0.6, 0.8}
	for _, text := range []string{"0 >= 0", "(p1 + p2) * 0 <= 0", "p2 <= (p3 - p1) / 0"} {
		phi, err := parseShat(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := predapprox.ClosedForm(phi, x); ok {
			t.Errorf("%s: the closed form applies", text)
		}
		if m, cm := phi.Margin(x), predapprox.CornerMargin(phi, x); math.Float64bits(m) != math.Float64bits(cm) {
			t.Errorf("%s: margin %v, corner search %v", text, m, cm)
		}
	}
}
