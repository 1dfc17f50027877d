package predapprox

import (
	"fmt"
	"math"
)

// AExpr is an algebraic expression over slots, built from constants, slot
// references, and +, −, ·, / — the expression language of Theorem 5.5.
type AExpr interface {
	Eval(x []float64) float64
	// countSlots increments counts[i] for every occurrence of slot i.
	countSlots(counts []int)
	String() string
}

// Slot references approximable value xᵢ.
type Slot int

// Eval returns x[s].
func (s Slot) Eval(x []float64) float64 { return x[s] }

func (s Slot) countSlots(counts []int) { counts[s]++ }

func (s Slot) String() string { return fmt.Sprintf("x%d", int(s)) }

// Num is a numeric constant.
type Num float64

// Eval returns the constant.
func (n Num) Eval([]float64) float64 { return float64(n) }

func (n Num) countSlots([]int) {}

func (n Num) String() string { return fmt.Sprintf("%g", float64(n)) }

// BinOp is one of the four arithmetic operations.
type BinOp uint8

// The operations of Theorem 5.5.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
)

// Bin is a binary arithmetic node.
type Bin struct {
	Op   BinOp
	L, R AExpr
}

// Eval applies the operation. Division by zero yields ±Inf/NaN, which the
// comparison treats as falsifying; such points sit on singularities anyway.
func (b Bin) Eval(x []float64) float64 {
	l, r := b.L.Eval(x), b.R.Eval(x)
	switch b.Op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		return l / r
	default:
		return math.NaN()
	}
}

func (b Bin) countSlots(counts []int) {
	b.L.countSlots(counts)
	b.R.countSlots(counts)
}

func (b Bin) String() string {
	op := map[BinOp]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"}[b.Op]
	return "(" + b.L.String() + " " + op + " " + b.R.String() + ")"
}

// Add builds l+r.
func Add(l, r AExpr) AExpr { return Bin{Op: OpAdd, L: l, R: r} }

// Sub builds l−r.
func Sub(l, r AExpr) AExpr { return Bin{Op: OpSub, L: l, R: r} }

// Mul builds l·r.
func Mul(l, r AExpr) AExpr { return Bin{Op: OpMul, L: l, R: r} }

// Div builds l/r.
func Div(l, r AExpr) AExpr { return Bin{Op: OpDiv, L: l, R: r} }

// AlgAtom is the predicate f(x₁,…,x_k) ≥ 0 (or > 0 when Strict) of
// Theorem 5.5. Every slot must occur at most once in F for the corner-point
// criterion to be sound; NewAlgAtom enforces this. The paper notes this is
// only a small loss: re-approximating a value gives an independent copy for
// a second occurrence.
type AlgAtom struct {
	F      AExpr
	Strict bool
	arity  int
	slots  []int // slots that actually occur (each exactly once)
}

// NewAlgAtom validates the single-occurrence restriction and returns the
// atom. arity is the total slot count of the surrounding predicate.
func NewAlgAtom(f AExpr, arity int) (AlgAtom, error) {
	counts := make([]int, arity)
	f.countSlots(counts)
	var slots []int
	for i, c := range counts {
		if c > 1 {
			return AlgAtom{}, fmt.Errorf("predapprox: slot x%d occurs %d times; Theorem 5.5 requires single occurrence", i, c)
		}
		if c == 1 {
			slots = append(slots, i)
		}
	}
	return AlgAtom{F: f, arity: arity, slots: slots}, nil
}

// MustAlgAtom is NewAlgAtom, panicking on violation; for statically known
// predicates.
func MustAlgAtom(f AExpr, arity int) AlgAtom {
	a, err := NewAlgAtom(f, arity)
	if err != nil {
		panic(err)
	}
	return a
}

// Eval decides f(x) ≥ 0 (f(x) > 0 when Strict).
func (a AlgAtom) Eval(x []float64) bool { return a.holds(a.F.Eval(x)) }

func (a AlgAtom) holds(v float64) bool { return v > 0 || v == 0 && !a.Strict }

// Arity returns the slot count.
func (a AlgAtom) Arity() int { return a.arity }

func (a AlgAtom) String() string {
	if a.Strict {
		return a.F.String() + " > 0"
	}
	return a.F.String() + " >= 0"
}

// Margin maximizes ε by binary search (the procedure following Theorem
// 5.5): a candidate ε qualifies iff all 2^k corner points of the orthotope
// agree with the center, which by the theorem implies the whole orthotope
// agrees. Monotonicity in ε (smaller orthotopes are contained in larger
// homogeneous ones) makes binary search exact up to tolerance.
func (a AlgAtom) Margin(x []float64) float64 {
	want := a.Eval(x)
	if !a.cornersAgreeAt(x, 0, want) { // degenerate: center itself ambiguous
		return 0
	}
	lo, hi := 0.0, EpsMax
	if a.cornersAgreeAt(x, hi, want) {
		return hi
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if a.cornersAgreeAt(x, mid, want) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// cornersAgreeAt checks all 2^|slots| corners of the radius-eps orthotope.
func (a AlgAtom) cornersAgreeAt(x []float64, eps float64, want bool) bool {
	k := len(a.slots)
	pt := append([]float64(nil), x...)
	for mask := 0; mask < 1<<k; mask++ {
		for j, s := range a.slots {
			if mask&(1<<j) != 0 {
				pt[s] = x[s] / (1 + eps)
			} else {
				pt[s] = x[s] / (1 - eps)
			}
		}
		v := a.F.Eval(pt)
		if math.IsNaN(v) {
			return false // division blew up inside the orthotope
		}
		if a.holds(v) != want {
			return false
		}
	}
	return true
}

// RatioAtom builds the paper's running example φ(x₁,x₂) = (x₁/x₂ ≥ c) in
// its linearized form x₁ − c·x₂ ≥ 0 (Example 5.4).
func RatioAtom(num, den int, c float64, arity int) LinAtom {
	coef := make([]float64, arity)
	coef[num] = 1
	coef[den] = -c
	return Linear(coef, 0)
}
