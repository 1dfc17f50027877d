// Package rel provides the relational substrate used by every other layer:
// typed scalar values, tuples, schemas, and set-semantics relations.
//
// Values are a small tagged union over null, bool, int64, float64 and
// string. Arithmetic promotes int to float when the operands mix; equality
// and ordering compare numerics by value across the int/float divide, so a
// tuple ⟨1⟩ equals a tuple ⟨1.0⟩, matching the untyped-constant semantics
// used by the paper's examples.
package rel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds. NullKind is the zero value, so the zero Value is NULL.
const (
	NullKind Kind = iota
	BoolKind
	IntKind
	FloatKind
	StringKind
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case NullKind:
		return "null"
	case BoolKind:
		return "bool"
	case IntKind:
		return "int"
	case FloatKind:
		return "float"
	case StringKind:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable scalar database value: 32 bytes, a string header,
// one payload word and the kind. The word n holds an int's two's-complement
// bits, a float's IEEE-754 bits or a bool as 0/1; a string keeps its bytes
// in s. Every value a kind does not use is zero. Go's == compares those
// bits (+0 and −0 differ, a NaN equals itself), so values are compared with
// Equal or Compare, never ==.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: BoolKind, n: 1}
	}
	return Value{kind: BoolKind}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: IntKind, n: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: FloatKind, n: math.Float64bits(f)} }

// String returns a string value.
func String(s string) Value { return Value{kind: StringKind, s: s} }

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == NullKind }

// AsBool returns the boolean payload; it is false for non-bool values.
func (v Value) AsBool() bool { return v.kind == BoolKind && v.n != 0 }

// AsInt returns the value as int64, truncating floats. It returns 0 for
// non-numeric values.
func (v Value) AsInt() int64 {
	switch v.kind {
	case IntKind:
		return int64(v.n)
	case FloatKind:
		return int64(math.Float64frombits(v.n))
	default:
		return 0
	}
}

// AsFloat returns the value as float64. It returns NaN for non-numeric
// values so that accidental arithmetic on strings is loud in tests.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case IntKind:
		return float64(int64(v.n))
	case FloatKind:
		return math.Float64frombits(v.n)
	default:
		return math.NaN()
	}
}

// AsString returns the string payload, or the rendered form for other
// kinds.
func (v Value) AsString() string {
	if v.kind == StringKind {
		return v.s
	}
	return v.String()
}

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == IntKind || v.kind == FloatKind }

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case NullKind:
		return "NULL"
	case BoolKind:
		return strconv.FormatBool(v.n != 0)
	case IntKind:
		return strconv.FormatInt(int64(v.n), 10)
	case FloatKind:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case StringKind:
		return v.s
	default:
		return "?"
	}
}

// Key renders a canonical, injective encoding of the value, suitable for
// use as a map key: two values have the same key exactly when they are
// Equal. Numerics render their widened float64 — so Int(1) and Float(1)
// agree — with −0 canonicalized onto +0, as in Hash.
func (v Value) Key() string { return string(v.appendKey(nil)) }

func (v Value) appendKey(dst []byte) []byte {
	switch v.kind {
	case NullKind:
		return append(dst, 'n')
	case BoolKind:
		if v.n != 0 {
			return append(dst, "b1"...)
		}
		return append(dst, "b0"...)
	case IntKind, FloatKind:
		f := v.AsFloat()
		if f == 0 {
			f = 0 // −0 is Equal to +0
		}
		return strconv.AppendFloat(append(dst, 'f'), f, 'g', -1, 64)
	case StringKind:
		return append(append(dst, 's'), v.s...)
	default:
		return append(dst, '?')
	}
}

// Compare orders values. NULL sorts before everything; bools before
// numbers before strings. Ints and floats compare numerically with each
// other, as float64s; NaN equals only NaN and sorts before every other
// number, so the order is total. It returns -1, 0 or +1.
func Compare(a, b Value) int {
	ra, rb := compareRank(a.kind), compareRank(b.kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch {
	case a.kind == NullKind:
		return 0
	case a.kind == BoolKind:
		switch {
		case a.n == b.n:
			return 0
		case a.n == 0:
			return -1
		default:
			return 1
		}
	case a.IsNumeric():
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		case af == bf:
			return 0
		case af == af: // only b is NaN
			return 1
		case bf == bf: // only a is NaN
			return -1
		default:
			return 0
		}
	default:
		return strings.Compare(a.s, b.s)
	}
}

// compareRank groups kinds into comparison classes: null < bool < numeric
// < string.
func compareRank(k Kind) int {
	switch k {
	case NullKind:
		return 0
	case BoolKind:
		return 1
	case IntKind, FloatKind:
		return 2
	default:
		return 3
	}
}

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Add returns a+b with numeric promotion. Adding involving a non-numeric
// value yields NULL.
func Add(a, b Value) Value {
	return arith(a, b, func(x, y float64) float64 { return x + y }, func(x, y int64) int64 { return x + y })
}

// Sub returns a-b with numeric promotion.
func Sub(a, b Value) Value {
	return arith(a, b, func(x, y float64) float64 { return x - y }, func(x, y int64) int64 { return x - y })
}

// Mul returns a*b with numeric promotion.
func Mul(a, b Value) Value {
	return arith(a, b, func(x, y float64) float64 { return x * y }, func(x, y int64) int64 { return x * y })
}

// Div returns a/b. Division always produces a float; division by zero
// yields NULL (the paper's expressions never divide by zero on valid
// inputs, and NULL propagates harmlessly through predicates as false).
func Div(a, b Value) Value {
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null()
	}
	d := b.AsFloat()
	if d == 0 {
		return Null()
	}
	return Float(a.AsFloat() / d)
}

// arith applies ff (float op) or fi (int op) depending on operand kinds.
func arith(a, b Value, ff func(float64, float64) float64, fi func(int64, int64) int64) Value {
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null()
	}
	if a.kind == IntKind && b.kind == IntKind {
		return Int(fi(int64(a.n), int64(b.n)))
	}
	return Float(ff(a.AsFloat(), b.AsFloat()))
}

// Parse converts a textual field (e.g. from CSV input) into a Value: int
// if it parses as an integer, float if it parses as a number, bool for
// true/false, otherwise a string. Empty text parses as NULL.
func Parse(s string) Value {
	if s == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	if s == "true" {
		return Bool(true)
	}
	if s == "false" {
		return Bool(false)
	}
	return String(s)
}
