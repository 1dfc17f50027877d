package parser

import (
	"math"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

func TestParseBasicOps(t *testing.T) {
	cases := []string{
		"R",
		"select[A = 1](R)",
		"select[A + B >= 2 and not (C = 'x')](R)",
		"project[A, B](R)",
		"project[P1 / P2 as P, A](R)",
		"product(R, S)",
		"join(R, S)",
		"union(R, S)",
		"diff(R, S)",
		"repairkey[@W](R)",
		"repairkey[A, B @ W](R)",
		"conf(R)",
		"conf as P2(R)",
		"poss(R)",
		"cert(R)",
		"aselect[p1 >= 0.5 over conf[A]](R)",
		"aselect[p1 / p2 <= 0.5 over conf[A], conf[]](R)",
		"X := conf(R); select[P >= 0.5](X)",
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q) failed: %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"select[A = 1]",
		"select[A = ](R)",
		"project[A + 1](R)",                  // computed target without 'as'
		"repairkey[A](R)",                    // missing @W
		"aselect[p1 = 0.5 over conf[A]](R)",  // equality rejected
		"aselect[q1 >= 0.5 over conf[A]](R)", // bad variable
		"aselect[p2 >= 0.5 over conf[A]](R)", // out-of-range slot
		"conf(R) extra",
		"R := conf(S);", // no final query
		"select[A = 1](R",
		"'unterminated",
		"select[A ? 1](R)",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// The full coin program through the parser must reproduce the paper's
// posterior.
func TestParseCoinProgram(t *testing.T) {
	src := `
-- Example 2.2 from the paper.
R := project[CoinType](repairkey[@Count](Coins));
S := project[CoinType, Toss, Face](
       repairkey[CoinType, Toss @ FProb](product(Faces, Tosses)));
T := join(join(R, project[CoinType](select[Toss = 1 and Face = 'H'](S))),
          project[CoinType](select[Toss = 2 and Face = 'H'](S)));
project[CoinType, P1 / P2 as P](
  product(conf as P1(T), conf as P2(project[](T))));
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := urel.NewDatabase()
	db.AddComplete("Coins", rel.FromRows(rel.NewSchema("CoinType", "Count"),
		rel.Tuple{rel.String("fair"), rel.Int(2)},
		rel.Tuple{rel.String("2headed"), rel.Int(1)},
	))
	db.AddComplete("Faces", rel.FromRows(rel.NewSchema("CoinType", "Face", "FProb"),
		rel.Tuple{rel.String("fair"), rel.String("H"), rel.Float(0.5)},
		rel.Tuple{rel.String("fair"), rel.String("T"), rel.Float(0.5)},
		rel.Tuple{rel.String("2headed"), rel.String("H"), rel.Float(1)},
	))
	db.AddComplete("Tosses", rel.FromRows(rel.NewSchema("Toss"),
		rel.Tuple{rel.Int(1)}, rel.Tuple{rel.Int(2)},
	))
	res, err := algebra.NewURelEvaluator(db).Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	out := urel.Poss(res.Rel)
	if out.Len() != 2 {
		t.Fatalf("U has %d tuples:\n%s", out.Len(), out)
	}
	for _, tp := range out.Tuples() {
		ct := out.Value(tp, "CoinType").AsString()
		p := out.Value(tp, "P").AsFloat()
		want := 1.0 / 3
		if ct == "2headed" {
			want = 2.0 / 3
		}
		if math.Abs(p-want) > 1e-9 {
			t.Errorf("U[%s] = %v, want %v", ct, p, want)
		}
	}
}

// A parsed σ̂ program runs through the approximate engine.
func TestParseApproxSelectEndToEnd(t *testing.T) {
	src := `aselect[p1 >= 0.5 over conf[ID]](R)`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	x := db.Vars.Add("x", []float64{0.9, 0.1}, nil)
	y := db.Vars.Add("y", []float64{0.9, 0.1}, nil)
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(0)})
	r.Add(vars.MustAssignment(vars.Binding{Var: y, Alt: 0}), rel.Tuple{rel.Int(0)})
	db.AddURelation("R", r, false)
	eng := core.NewEngine(db, core.Options{Eps0: 0.05, Delta: 0.1, Seed: 1})
	res, err := eng.EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	if urel.Poss(res.Rel).Len() != 1 {
		t.Errorf("σ̂ should keep the 0.99-confidence tuple")
	}
}

// A strict σ̂ comparison is the negation of the non-strict converse, also
// on an exact confidence that sits on the boundary.
func TestStrictApproxComparisonAtBoundary(t *testing.T) {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	x := db.Vars.Add("x", []float64{0.5, 0.5}, nil)
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(0)})
	db.AddURelation("R", r, false)
	for strict, negated := range map[string]string{
		"p1 > 0.5": "not (p1 <= 0.5)",
		"p1 < 0.5": "not (p1 >= 0.5)",
	} {
		rows := func(pred string) int {
			q, err := Parse("aselect[" + pred + " over conf[]](R)")
			if err != nil {
				t.Fatal(err)
			}
			res, err := algebra.NewURelEvaluator(db).Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			return urel.Poss(res.Rel).Len()
		}
		if got, want := rows(strict), rows(negated); got != want {
			t.Errorf("at conf = 0.5, %s keeps %d rows but %s keeps %d", strict, got, negated, want)
		}
	}
}

func TestLoadCSV(t *testing.T) {
	src := "A,B,C\n1,2.5,hello\n2,,true\n"
	r, err := LoadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Equal(rel.NewSchema("A", "B", "C")) {
		t.Fatalf("schema = %v", r.Schema())
	}
	if r.Len() != 2 {
		t.Fatalf("rows = %d", r.Len())
	}
	row := r.Tuples()[0]
	if !rel.Equal(row[0], rel.Int(1)) || !rel.Equal(row[1], rel.Float(2.5)) || !rel.Equal(row[2], rel.String("hello")) {
		t.Errorf("row 0 = %v", row)
	}
	if !r.Tuples()[1][1].IsNull() {
		t.Error("empty field should parse as NULL")
	}
	if _, err := LoadCSV(strings.NewReader("A,B\n1\n")); err == nil {
		t.Error("ragged CSV must fail")
	}
	if _, err := LoadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV must fail")
	}
}

// Attribute lists in conf[…] and repairkey[… @ W] are comma-separated like
// project's: a missing or trailing comma is an error, an empty list is not.
func TestAttributeListsNeedCommas(t *testing.T) {
	for _, src := range []string{
		"aselect[p1 >= 0.5 over conf[A B]](R)",
		"aselect[p1 >= 0.5 over conf[A,]](R)",
		"repairkey[A B @ W](R)",
		"repairkey[A, @ W](R)",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	for _, src := range []string{
		"aselect[p1 >= 0.5 over conf[]](R)",
		"aselect[p1 >= 0.5 over conf[A, B]](R)",
		"repairkey[@ W](R)",
		"repairkey[A, B @ W](R)",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}
