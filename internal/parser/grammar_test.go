package parser

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
)

func TestParseNestedAndComments(t *testing.T) {
	src := `
-- a comment line
X := union(select[A >= 1](R), -- trailing comment
           select[A < 1](R));
project[A](diff(X, S))
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	let, ok := q.(algebra.Let)
	if !ok || let.Name != "X" {
		t.Fatalf("expected Let X, got %T", q)
	}
	if _, ok := let.Def.(algebra.Union); !ok {
		t.Errorf("X should be a union, got %T", let.Def)
	}
}

func TestParseBooleanApproxPredicate(t *testing.T) {
	src := `aselect[p1 >= 0.3 and p1 <= 0.9 or not (p2 < 0.1) over conf[A], conf[]](R)`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	as, ok := q.(algebra.ApproxSelect)
	if !ok {
		t.Fatalf("got %T", q)
	}
	if as.Pred.Arity() != 2 {
		t.Errorf("predicate arity = %d", as.Pred.Arity())
	}
	// Semantics spot checks.
	cases := []struct {
		x    []float64
		want bool
	}{
		{[]float64{0.5, 0.5}, true},  // first conjunct holds
		{[]float64{0.95, 0.5}, true}, // second disjunct: ¬(0.5 < 0.1)
		{[]float64{0.95, 0.05}, false},
		{[]float64{0.1, 0.05}, false},
	}
	for _, c := range cases {
		if got := as.Pred.Eval(c.x); got != c.want {
			t.Errorf("pred(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// * binds tighter than +; comparison binds the whole arithmetic.
	q, err := Parse("select[A + B * 2 >= 7](R)")
	if err != nil {
		t.Fatal(err)
	}
	sel := q.(algebra.Select)
	env := expr.Env{Schema: rel.NewSchema("A", "B"), Tuple: rel.Tuple{rel.Int(1), rel.Int(3)}}
	if !sel.Pred.Holds(env) { // 1 + 6 = 7 ≥ 7
		t.Error("precedence wrong: 1 + 3*2 should be 7")
	}
	env2 := expr.Env{Schema: rel.NewSchema("A", "B"), Tuple: rel.Tuple{rel.Int(1), rel.Int(2)}}
	if sel.Pred.Holds(env2) { // 1 + 4 = 5 < 7
		t.Error("precedence wrong: 1 + 2*2 should be 5")
	}
}

func TestParseUnaryMinusAndFloats(t *testing.T) {
	q, err := Parse("select[A >= -1.5e1](R)")
	if err != nil {
		t.Fatal(err)
	}
	sel := q.(algebra.Select)
	env := expr.Env{Schema: rel.NewSchema("A"), Tuple: rel.Tuple{rel.Int(-10)}}
	if !sel.Pred.Holds(env) {
		t.Error("-10 ≥ -15 should hold")
	}
	env2 := expr.Env{Schema: rel.NewSchema("A"), Tuple: rel.Tuple{rel.Int(-20)}}
	if sel.Pred.Holds(env2) {
		t.Error("-20 ≥ -15 should not hold")
	}
}

func TestParseParenthesizedConditions(t *testing.T) {
	q, err := Parse("select[(A = 1 or A = 2) and B = 3](R)")
	if err != nil {
		t.Fatal(err)
	}
	sel := q.(algebra.Select)
	schema := rel.NewSchema("A", "B")
	holds := func(a, b int64) bool {
		return sel.Pred.Holds(expr.Env{Schema: schema, Tuple: rel.Tuple{rel.Int(a), rel.Int(b)}})
	}
	if !holds(1, 3) || !holds(2, 3) || holds(1, 4) || holds(3, 3) {
		t.Error("parenthesized condition semantics wrong")
	}
	// Parenthesized arithmetic on the left of a comparison.
	q2, err := Parse("select[(A + B) / 2 >= 3](R)")
	if err != nil {
		t.Fatal(err)
	}
	sel2 := q2.(algebra.Select)
	if !sel2.Pred.Holds(expr.Env{Schema: schema, Tuple: rel.Tuple{rel.Int(4), rel.Int(2)}}) {
		t.Error("(4+2)/2 ≥ 3 should hold")
	}
}

func TestParseShadowingBindings(t *testing.T) {
	// A binding may shadow a base relation; the inner use sees the
	// binding, restored afterwards by the evaluator.
	src := "R := select[A >= 1](R); conf(R)"
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	let := q.(algebra.Let)
	if let.Name != "R" {
		t.Fatalf("binding name %q", let.Name)
	}
	if _, ok := let.Def.(algebra.Select); !ok {
		t.Error("definition should reference the base R")
	}
}

func TestParseApproxSelectPredicateForms(t *testing.T) {
	// Linear and ratio forms both parse to sound predicates.
	for _, src := range []string{
		"aselect[p1 - 0.5 * p2 >= 0 over conf[A], conf[]](R)",
		"aselect[p1 / p2 <= 0.5 over conf[A], conf[]](R)",
		"aselect[0.5 <= p1 over conf[A]](R)",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		as := q.(algebra.ApproxSelect)
		x := make([]float64, len(as.Args))
		for i := range x {
			x[i] = 0.4
		}
		_ = as.Pred.Eval(x)
		if m := as.Pred.Margin(x); m < 0 || m > predapprox.EpsMax {
			t.Errorf("%s: margin out of range", src)
		}
	}
}

func TestExplainParsedProgram(t *testing.T) {
	q, err := Parse("X := conf(R); select[P >= 0.5](X)")
	if err != nil {
		t.Fatal(err)
	}
	out := algebra.Explain(q, nil)
	if !strings.Contains(out, "let X") || !strings.Contains(out, "conf → P") {
		t.Errorf("explain output:\n%s", out)
	}
}

// -explain shows the σ̂ predicate the user wrote, over p1..pk, not a
// rewritten form over internal slots.
func TestExplainShowsApproxPredicateAsWritten(t *testing.T) {
	q, err := Parse("aselect[p1 / p2 <= 0.5 over conf[A], conf[]](R)")
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{algebra.Explain(q, nil), q.String()} {
		if !strings.Contains(out, "p1 / p2) <= 0.5") || strings.Contains(out, "x0") {
			t.Errorf("σ̂ predicate not shown as written:\n%s", out)
		}
	}
}
