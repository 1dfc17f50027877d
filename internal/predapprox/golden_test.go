package predapprox_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/parser"
	"repro/internal/predapprox"
)

// parsedPredicateGolden is the SHA-256 of everything 2 000 seeded σ̂
// predicate texts compute through the parser: acceptance (with the error
// text), and Eval and the bits of Margin at random points and at points on
// each comparison's boundary. It changes only if a parsed predicate decides
// or measures differently, which no refactor of the σ̂ predicate may do
// (last re-recorded when affine comparisons took Theorem 5.2's closed form).
const parsedPredicateGolden = "7a8948e452fa28ead6131d71fb96ae4a077b725e64c48d2d53c1309a4f6b2568"

// parseShat parses pred as the predicate of a σ̂ over three conf arguments,
// so it may name p1, p2 and p3.
func parseShat(pred string) (predapprox.Pred, error) {
	q, err := parser.Parse("aselect[" + pred + " over conf[A], conf[B], conf[C]](R)")
	if err != nil {
		return predapprox.Pred{}, err
	}
	return q.(algebra.ApproxSelect).Pred, nil
}

// predGen writes random σ̂ predicate texts over p1..p3: the four
// inequalities, +, −, ·, /, integer and float constants, unary minus,
// and/or/not and parentheses. A comparison mostly names each slot at most
// once, sometimes twice (which the parser rejects).
type predGen struct{ rng *rand.Rand }

// pred returns a predicate text and appends its comparisons' texts to atoms.
func (g predGen) pred(depth int, atoms *[]string) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		a := g.atom()
		*atoms = append(*atoms, a)
		return a
	}
	switch g.rng.Intn(4) {
	case 0:
		return g.pred(depth-1, atoms) + " and " + g.pred(depth-1, atoms)
	case 1:
		return g.pred(depth-1, atoms) + " or " + g.pred(depth-1, atoms)
	case 2:
		return "not " + g.pred(depth-1, atoms)
	default:
		return "(" + g.pred(depth-1, atoms) + ")"
	}
}

func (g predGen) atom() string {
	order, used := g.rng.Perm(3), 0
	slot := func() string {
		i := g.rng.Intn(3)
		if used < len(order) && g.rng.Intn(12) != 0 {
			i = order[used]
			used++
		}
		if g.rng.Intn(5) == 0 {
			return fmt.Sprintf("P%d", i+1)
		}
		return fmt.Sprintf("p%d", i+1)
	}
	l := g.arith(2, slot)
	op := []string{">=", ">", "<=", "<"}[g.rng.Intn(4)]
	return l + " " + op + " " + g.arith(2, slot)
}

func (g predGen) arith(depth int, slot func() string) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(6) {
		case 0, 1, 2:
			return slot()
		case 3:
			return fmt.Sprint(g.rng.Intn(4))
		case 4:
			return fmt.Sprintf("%.3g", 2*g.rng.Float64())
		default:
			return fmt.Sprintf("%de-1", g.rng.Intn(10))
		}
	}
	switch g.rng.Intn(6) {
	case 4:
		return "-" + g.arith(0, slot)
	case 5:
		return "(" + g.arith(depth-1, slot) + ")"
	default:
		op := []string{" + ", " - ", " * ", " / "}[g.rng.Intn(4)]
		return g.arith(depth-1, slot) + op + g.arith(depth-1, slot)
	}
}

// unitPoint draws a point of (0,1]³.
func unitPoint(rng *rand.Rand) []float64 {
	return []float64{1 - rng.Float64(), 1 - rng.Float64(), 1 - rng.Float64()}
}

// boundary returns two points on either side of p's decision boundary that
// differ in one coordinate by one float step (or as close as bisection
// reaches), or nil when no random segment crosses the boundary.
func boundary(p predapprox.Pred, rng *rand.Rand) [][]float64 {
	for try := 0; try < 16; try++ {
		a, b := unitPoint(rng), unitPoint(rng)
		want := p.Eval(a)
		for i := range a {
			c := append([]float64(nil), a...)
			c[i] = b[i]
			if p.Eval(c) == want {
				continue
			}
			lo, hi := a[i], b[i]
			for n := 0; n < 200; n++ {
				mid := lo + (hi-lo)/2
				if mid == lo || mid == hi {
					break
				}
				c[i] = mid
				if p.Eval(c) == want {
					lo = mid
				} else {
					hi = mid
				}
			}
			x, y := append([]float64(nil), a...), append([]float64(nil), a...)
			x[i], y[i] = lo, hi
			return [][]float64{x, y}
		}
	}
	return nil
}

// TestParsedPredicateGolden pins, bit for bit, what parsed σ̂ predicates
// compute, so a change to how the parser hands a predicate to the engine
// cannot move a decision or a margin unnoticed.
func TestParsedPredicateGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	g := predGen{rng}
	h := sha256.New()
	accepted := 0
	for i := 0; i < 2000; i++ {
		var atoms []string
		text := g.pred(3, &atoms)
		fmt.Fprintf(h, "%q\n", text)
		phi, err := parseShat(text)
		if err != nil {
			fmt.Fprintf(h, "rejected: %v\n", err)
			continue
		}
		accepted++
		var pts [][]float64
		for j := 0; j < 8; j++ {
			pts = append(pts, unitPoint(rng))
		}
		for _, a := range atoms {
			if ap, err := parseShat(a); err == nil {
				pts = append(pts, boundary(ap, rng)...)
			}
		}
		for _, x := range pts {
			fmt.Fprintf(h, "%x %x %x %t %016x\n", math.Float64bits(x[0]), math.Float64bits(x[1]),
				math.Float64bits(x[2]), phi.Eval(x), math.Float64bits(phi.Margin(x)))
		}
	}
	if accepted < 1000 {
		t.Fatalf("only %d of 2000 predicates accepted", accepted)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != parsedPredicateGolden {
		t.Errorf("parsed predicates compute differently: digest %s, want %s (%d accepted)",
			got, parsedPredicateGolden, accepted)
	}
}
