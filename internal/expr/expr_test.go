package expr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

func env(schema rel.Schema, vals ...rel.Value) Env {
	return Env{Schema: schema, Tuple: rel.Tuple(vals)}
}

func TestExprEval(t *testing.T) {
	e := env(rel.NewSchema("A", "B"), rel.Int(6), rel.Float(1.5))
	cases := []struct {
		e    Expr
		want rel.Value
	}{
		{CInt(3), rel.Int(3)},
		{A("A"), rel.Int(6)},
		{A("B"), rel.Float(1.5)},
		{A("missing"), rel.Null()},
		{Add(A("A"), CInt(1)), rel.Int(7)},
		{Sub(A("A"), A("B")), rel.Float(4.5)},
		{Mul(A("A"), CInt(2)), rel.Int(12)},
		{Div(A("A"), CInt(4)), rel.Float(1.5)},
		{Div(A("A"), CInt(0)), rel.Null()},
	}
	for _, c := range cases {
		got := c.e.Eval(e)
		if got.IsNull() != c.want.IsNull() || (!got.IsNull() && !rel.Equal(got, c.want)) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestCmpOps(t *testing.T) {
	e := env(rel.NewSchema("X"), rel.Int(5))
	cases := []struct {
		p    Pred
		want bool
	}{
		{Eq(A("X"), CInt(5)), true},
		{Eq(A("X"), CFloat(5.0)), true},
		{Ne(A("X"), CInt(5)), false},
		{Lt(A("X"), CInt(6)), true},
		{Le(A("X"), CInt(5)), true},
		{Gt(A("X"), CInt(5)), false},
		{Ge(A("X"), CInt(5)), true},
		{Eq(A("X"), CStr("5")), false}, // cross-kind comparison is not equal
	}
	for _, c := range cases {
		if got := c.p.Holds(e); got != c.want {
			t.Errorf("%s = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNullComparesFalse(t *testing.T) {
	e := env(rel.NewSchema("X"), rel.Int(1))
	p := Eq(A("missing"), A("missing"))
	if p.Holds(e) {
		t.Error("NULL = NULL must be false in selections")
	}
	q := Ne(A("missing"), CInt(0))
	if q.Holds(e) {
		t.Error("NULL <> 0 must be false in selections")
	}
}

func TestBooleanCombinators(t *testing.T) {
	e := env(rel.NewSchema("X"), rel.Int(5))
	tr := Eq(A("X"), CInt(5))
	fa := Eq(A("X"), CInt(6))
	if !AndOf(tr, tr).Holds(e) || AndOf(tr, fa).Holds(e) {
		t.Error("And broken")
	}
	if !OrOf(fa, tr).Holds(e) || OrOf(fa, fa).Holds(e) {
		t.Error("Or broken")
	}
	if NotOf(tr).Holds(e) || !NotOf(fa).Holds(e) {
		t.Error("Not broken")
	}
	if !AndOf().Holds(e) {
		t.Error("empty And should be true")
	}
	if OrOf().Holds(e) {
		t.Error("empty Or should be false")
	}
}

func TestAttrs(t *testing.T) {
	p := AndOf(Gt(Add(A("A"), A("B")), CInt(0)), NotOf(Eq(A("C"), CStr("x"))))
	got := p.Attrs(nil)
	want := map[string]bool{"A": true, "B": true, "C": true}
	if len(got) != 3 {
		t.Fatalf("Attrs = %v", got)
	}
	for _, a := range got {
		if !want[a] {
			t.Errorf("unexpected attr %q", a)
		}
	}
}

func TestTargets(t *testing.T) {
	e := env(rel.NewSchema("P1", "P2"), rel.Float(0.5), rel.Float(0.25))
	tg := As("P", Div(A("P1"), A("P2")))
	if tg.As != "P" {
		t.Error("target name wrong")
	}
	if got := tg.Expr.Eval(e); !rel.Equal(got, rel.Float(2)) {
		t.Errorf("P1/P2 = %v", got)
	}
	all := KeepAll(rel.NewSchema("A", "B"))
	if len(all) != 2 || all[0].As != "A" || all[1].As != "B" {
		t.Errorf("KeepAll = %v", all)
	}
}

// Property check using testing/quick: comparisons are total on ints.
func TestCmpTotality(t *testing.T) {
	f := func(a, b int64) bool {
		l, r := rel.Int(a), rel.Int(b)
		eq := CmpEq.Apply(l, r)
		lt := CmpLt.Apply(l, r)
		gt := CmpGt.Apply(l, r)
		// Exactly one of eq/lt/gt holds.
		n := 0
		for _, v := range []bool{eq, lt, gt} {
			if v {
				n++
			}
		}
		return n == 1 && CmpLe.Apply(l, r) == (eq || lt) && CmpGe.Apply(l, r) == (eq || gt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBindMatchesNames is Bind's property: over random expressions and
// predicates on random schemas and tuples, the bound tree evaluates as the
// name-resolving one, attributes the schema lacks (NULL) included.
func TestBindMatchesNames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"A", "B", "C", "D", "E", "F"}
	value := func() rel.Value {
		switch rng.Intn(5) {
		case 0:
			return rel.Null()
		case 1:
			return rel.Int(int64(rng.Intn(7) - 3))
		case 2:
			return rel.Float(float64(rng.Intn(9)-4) / 2)
		case 3:
			return rel.String(string(rune('a' + rng.Intn(3))))
		default:
			return rel.Bool(rng.Intn(2) == 0)
		}
	}
	var genExpr func(depth int) Expr
	genExpr = func(depth int) Expr {
		switch k := rng.Intn(3); {
		case depth == 0 || k == 0:
			if rng.Intn(3) == 0 {
				return Const{V: value()}
			}
			return A(names[rng.Intn(len(names))]) // possibly absent
		default:
			return Arith{Op: ArithOp(rng.Intn(4)), L: genExpr(depth - 1), R: genExpr(depth - 1)}
		}
	}
	var genPred func(depth int) Pred
	genPred = func(depth int) Pred {
		k := rng.Intn(4)
		if depth == 0 {
			k = 0
		}
		switch k {
		case 0:
			return Cmp{Op: CmpOp(rng.Intn(6)), L: genExpr(2), R: genExpr(2)}
		case 1:
			return And{Kids: []Pred{genPred(depth - 1), genPred(depth - 1)}}
		case 2:
			return Or{Kids: []Pred{genPred(depth - 1), genPred(depth - 1)}}
		default:
			return Not{Kid: genPred(depth - 1)}
		}
	}
	absent := 0
	for i := 0; i < 2000; i++ {
		schema := rel.NewSchema(names[:1+rng.Intn(len(names)-1)]...)
		rng.Shuffle(len(schema), func(a, b int) { schema[a], schema[b] = schema[b], schema[a] })
		tuple := make(rel.Tuple, len(schema))
		for j := range tuple {
			tuple[j] = value()
		}
		e, p := genExpr(3), genPred(3)
		for _, a := range append(e.Attrs(nil), p.Attrs(nil)...) {
			if !schema.Has(a) {
				absent++
			}
		}
		env := Env{Schema: schema, Tuple: tuple}
		be, bp := Bind(e, schema), BindPred(p, schema)
		if got, want := be.Eval(env), e.Eval(env); got.Kind() != want.Kind() || rel.Compare(got, want) != 0 {
			t.Fatalf("%s over %v%v: bound %v, by name %v", e, schema, tuple, got, want)
		}
		if got, want := bp.Holds(env), p.Holds(env); got != want {
			t.Fatalf("%s over %v%v: bound %v, by name %v", p, schema, tuple, got, want)
		}
		if be.String() != e.String() || bp.String() != p.String() {
			t.Fatalf("binding changed the rendering: %s → %s, %s → %s", e, be, p, bp)
		}
	}
	if absent == 0 {
		t.Fatal("no case read an attribute absent from its schema")
	}
}
