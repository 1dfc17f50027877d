package rel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), NullKind},
		{Bool(true), BoolKind},
		{Int(3), IntKind},
		{Float(2.5), FloatKind},
		{String("x"), StringKind},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestValueCompareNumericPromotion(t *testing.T) {
	if !Equal(Int(2), Float(2.0)) {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Compare(Int(1), Float(1.5)) != -1 {
		t.Error("Int(1) < Float(1.5) expected")
	}
	if Compare(Float(3), Int(2)) != 1 {
		t.Error("Float(3) > Int(2) expected")
	}
	if Int(2).Key() != Float(2.0).Key() {
		t.Error("equal numerics must share a key")
	}
}

func TestValueCompareCrossKinds(t *testing.T) {
	// null < bool < numeric < string
	order := []Value{Null(), Bool(false), Bool(true), Int(-5), Float(0), String("")}
	for i := 0; i < len(order); i++ {
		for j := 0; j < len(order); j++ {
			got := Compare(order[i], order[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Int(-5) vs Float(0) is a real numeric comparison, included
			// in the intended order above.
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", order[i], order[j], got, want)
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(Int(2), Int(3)); !Equal(got, Int(5)) {
		t.Errorf("2+3 = %v", got)
	}
	if got := Add(Int(2), Float(0.5)); !Equal(got, Float(2.5)) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := Sub(Float(1), Int(2)); !Equal(got, Float(-1)) {
		t.Errorf("1-2 = %v", got)
	}
	if got := Mul(Int(4), Int(5)); !Equal(got, Int(20)) {
		t.Errorf("4*5 = %v", got)
	}
	if got := Div(Int(1), Int(2)); !Equal(got, Float(0.5)) {
		t.Errorf("1/2 = %v", got)
	}
	if got := Div(Int(1), Int(0)); !got.IsNull() {
		t.Errorf("1/0 = %v, want NULL", got)
	}
	if got := Add(String("a"), Int(1)); !got.IsNull() {
		t.Errorf("string+int = %v, want NULL", got)
	}
}

func TestAsFloatNonNumericIsNaN(t *testing.T) {
	if !math.IsNaN(String("x").AsFloat()) {
		t.Error("AsFloat of string should be NaN")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"2.5", Float(2.5)},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{"hello", String("hello")},
		{"", Null()},
	}
	for _, c := range cases {
		got := Parse(c.in)
		if got.Kind() != c.want.Kind() || !Equal(got, c.want) {
			t.Errorf("Parse(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Keys must distinguish tuples that concatenate to the same text.
	a := Tuple{String("a|b"), String("c")}
	b := Tuple{String("a"), String("b|c")}
	if a.Key() == b.Key() {
		t.Error("tuple keys collide across separator boundary")
	}
	c := Tuple{String(`a\`), String("b")}
	d := Tuple{String("a"), String(`\b`)}
	if c.Key() == d.Key() {
		t.Error("tuple keys collide across escape boundary")
	}
}

func TestTupleCompare(t *testing.T) {
	a := Tuple{Int(1), String("b")}
	b := Tuple{Int(1), String("c")}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("tuple compare broken")
	}
	short := Tuple{Int(1)}
	if short.Compare(a) != -1 {
		t.Error("shorter tuple should sort first on tie")
	}
}

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation(NewSchema("A", "B"))
	if !r.Add(Tuple{Int(1), String("x")}) {
		t.Error("first add should be new")
	}
	if r.Add(Tuple{Int(1), String("x")}) {
		t.Error("duplicate add should collapse")
	}
	if r.Add(Tuple{Float(1), String("x")}) {
		t.Error("numeric-equal duplicate should collapse")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if !r.Contains(Tuple{Int(1), String("x")}) {
		t.Error("Contains failed")
	}
}

func TestRelationProjectAndValue(t *testing.T) {
	r := FromRows(NewSchema("A", "B", "C"),
		Tuple{Int(1), String("x"), Float(0.5)},
		Tuple{Int(1), String("y"), Float(0.5)},
	)
	p := r.Project("A", "C")
	if p.Len() != 1 {
		t.Errorf("project should dedup: len=%d", p.Len())
	}
	if v := r.Value(r.Tuples()[0], "B"); !Equal(v, String("x")) {
		t.Errorf("Value B = %v", v)
	}
}

func TestRelationEqual(t *testing.T) {
	a := FromRows(NewSchema("A"), Tuple{Int(1)}, Tuple{Int(2)})
	b := FromRows(NewSchema("A"), Tuple{Int(2)}, Tuple{Int(1)})
	if !a.Equal(b) {
		t.Error("order-insensitive equality failed")
	}
	c := FromRows(NewSchema("A"), Tuple{Int(1)})
	if a.Equal(c) {
		t.Error("unequal relations reported equal")
	}
	d := FromRows(NewSchema("B"), Tuple{Int(1)}, Tuple{Int(2)})
	if a.Equal(d) {
		t.Error("schema mismatch must not be equal")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := NewSchema("A", "B", "C")
	if s.Index("B") != 1 || s.Index("Z") != -1 {
		t.Error("Index broken")
	}
	if !s.Has("C") || s.Has("Z") {
		t.Error("Has broken")
	}
	tt := NewSchema("B", "D")
	common := s.Common(tt)
	if len(common) != 1 || common[0] != "B" {
		t.Errorf("Common = %v", common)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate schema should panic")
		}
	}()
	NewSchema("A", "A")
}

// Property: Compare is antisymmetric and consistent with Equal for
// arbitrary int/float/string values.
func TestCompareProperties(t *testing.T) {
	f := func(ai int64, af float64, as string, bi int64, bf float64, bs string, sel uint8) bool {
		mk := func(i int64, fl float64, s string, sel uint8) Value {
			switch sel % 3 {
			case 0:
				return Int(i)
			case 1:
				if math.IsNaN(fl) {
					fl = 0
				}
				return Float(fl)
			default:
				return String(s)
			}
		}
		a := mk(ai, af, as, sel)
		b := mk(bi, bf, bs, sel>>2)
		c1, c2 := Compare(a, b), Compare(b, a)
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tuple Key is injective with respect to tuple equality.
func TestTupleKeyMatchesEquality(t *testing.T) {
	f := func(a1, b1 int64, a2, b2 string) bool {
		t1 := Tuple{Int(a1), String(a2)}
		t2 := Tuple{Int(b1), String(b2)}
		return (t1.Key() == t2.Key()) == t1.Equal(t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEqualKeyHashAgree pins the one equality of values on the numeric
// edge cases: Equal ⇔ equal Key() ⇒ equal Hash, and Compare stays a total
// order (antisymmetric) with NaN equal only to itself.
func TestEqualKeyHashAgree(t *testing.T) {
	vals := []Value{
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000fff)),
		Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(0), Float(math.Copysign(0, -1)), Int(0),
		Int(1), Float(1),
		Int(1<<53 + 1), Int(1 << 53), Float(1 << 53),
		Null(), Bool(false), String("NaN"), String("0"),
	}
	for _, a := range vals {
		for _, b := range vals {
			eq := Equal(a, b)
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v, %v) = %d but reversed %d", a, b, Compare(a, b), Compare(b, a))
			}
			if (a.Key() == b.Key()) != eq {
				t.Errorf("%v vs %v: Equal %v but keys %q, %q", a, b, eq, a.Key(), b.Key())
			}
			if eq && a.Hash(HashSeed) != b.Hash(HashSeed) {
				t.Errorf("%v and %v are Equal but hash differently", a, b)
			}
		}
	}
	if nan := Float(math.NaN()); Equal(nan, Int(1)) || Compare(nan, Float(math.Inf(-1))) >= 0 {
		t.Error("NaN must equal only NaN and sort before every other number")
	}
	// A relation deduplicates by Hash + Equal; its rows' keys must agree.
	r := NewRelation(NewSchema("X"))
	for _, v := range vals {
		r.Add(Tuple{v})
	}
	keys := map[string]bool{}
	for _, row := range r.Tuples() {
		keys[row.Key()] = true
	}
	if len(keys) != r.Len() {
		t.Errorf("%d distinct rows but %d distinct keys", r.Len(), len(keys))
	}
}
