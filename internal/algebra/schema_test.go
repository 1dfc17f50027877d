package algebra

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
)

func inferDB() *urel.Database {
	db := urel.NewDatabase()
	db.AddComplete("R", rel.FromRows(rel.NewSchema("A", "B"),
		rel.Tuple{rel.Int(1), rel.Int(2)}))
	db.AddComplete("S", rel.FromRows(rel.NewSchema("B", "C"),
		rel.Tuple{rel.Int(2), rel.Int(3)}))
	db.AddComplete("R2", rel.FromRows(rel.NewSchema("A", "B"),
		rel.Tuple{rel.Int(9), rel.Int(9)}))
	return db
}

func TestInferSchemaPositive(t *testing.T) {
	db := inferDB()
	cases := []struct {
		q    Query
		want rel.Schema
	}{
		{Base{Name: "R"}, rel.NewSchema("A", "B")},
		{Select{In: Base{Name: "R"}, Pred: expr.Gt(expr.A("A"), expr.CInt(0))}, rel.NewSchema("A", "B")},
		{Project{In: Base{Name: "R"}, Targets: []expr.Target{expr.As("X", expr.Add(expr.A("A"), expr.A("B")))}}, rel.NewSchema("X")},
		{Product{L: Base{Name: "R"}, R: Project{In: Base{Name: "S"}, Targets: []expr.Target{expr.Keep("C")}}}, rel.NewSchema("A", "B", "C")},
		{Join{L: Base{Name: "R"}, R: Base{Name: "S"}}, rel.NewSchema("A", "B", "C")},
		{Union{L: Base{Name: "R"}, R: Base{Name: "R2"}}, rel.NewSchema("A", "B")},
		{DiffC{L: Base{Name: "R"}, R: Base{Name: "R2"}}, rel.NewSchema("A", "B")},
		{RepairKey{In: Base{Name: "R"}, Key: []string{"A"}, Weight: "B"}, rel.NewSchema("A", "B")},
		{Conf{In: Base{Name: "R"}}, rel.NewSchema("A", "B", "P")},
		{Poss{In: Base{Name: "R"}}, rel.NewSchema("A", "B")},
		{Cert{In: Base{Name: "R"}}, rel.NewSchema("A", "B")},
		{ApproxSelect{In: Base{Name: "R"}, Args: []ConfArg{{Attrs: []string{"A"}}, {Attrs: nil}},
			Pred: predapprox.Linear([]float64{1, -1}, 0)}, rel.NewSchema("A", "P1", "P2")},
		{Let{Name: "V", Def: Conf{In: Base{Name: "R"}}, In: Project{In: Base{Name: "V"},
			Targets: []expr.Target{expr.Keep("P")}}}, rel.NewSchema("P")},
	}
	for _, c := range cases {
		got, err := InferSchema(c.q, db)
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("%s: schema %v, want %v", c.q, got, c.want)
		}
	}
}

func TestInferSchemaErrors(t *testing.T) {
	db := inferDB()
	cases := []Query{
		Base{Name: "nope"},
		Select{In: Base{Name: "R"}, Pred: expr.Gt(expr.A("Z"), expr.CInt(0))},
		Project{In: Base{Name: "R"}, Targets: []expr.Target{expr.Keep("Z")}},
		Project{In: Base{Name: "R"}, Targets: []expr.Target{expr.Keep("A"), expr.As("A", expr.A("B"))}},
		Product{L: Base{Name: "R"}, R: Base{Name: "R2"}}, // shared attrs
		Union{L: Base{Name: "R"}, R: Base{Name: "S"}},
		DiffC{L: Base{Name: "R"}, R: Base{Name: "S"}},
		RepairKey{In: Base{Name: "R"}, Key: []string{"Z"}, Weight: "B"},
		RepairKey{In: Base{Name: "R"}, Weight: "Z"},
		Conf{In: Base{Name: "R"}, As: "A"}, // collision
		ApproxSelect{In: Base{Name: "R"}, Args: []ConfArg{{Attrs: []string{"Z"}}},
			Pred: predapprox.Linear([]float64{1}, 0)},
		Let{Name: "V", Def: Base{Name: "nope"}, In: Base{Name: "V"}},
	}
	for _, q := range cases {
		if _, err := InferSchema(q, db); err == nil {
			t.Errorf("%s: expected schema error", q)
		}
	}
}

// Inference must agree with actual evaluation on every plan the coin
// example exercises.
func TestInferSchemaMatchesEvaluation(t *testing.T) {
	db := coinDB()
	_, qS, qT, qU := coinQueries()
	for _, q := range []Query{qS, qT, qU, Conf{In: qT}} {
		want, err := InferSchema(q, db)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := NewURelEvaluator(db).Eval(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !res.Rel.Schema().Equal(want) {
			t.Errorf("%s: inferred %v, evaluated %v", q, want, res.Rel.Schema())
		}
	}
}

// Property: on every random plan the evaluators accept, the statically
// inferred schema equals the evaluated relation's schema — and when
// inference rejects a plan, evaluation must reject it too.
func TestInferSchemaAgreesOnRandomPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	agreed := 0
	for trial := 0; trial < 200; trial++ {
		db := randDB(rng)
		q := randQuery(rng, 1+rng.Intn(3))
		inferred, inferErr := InferSchema(q, db)
		res, evalErr := NewURelEvaluator(db).Eval(q)
		switch {
		case inferErr == nil && evalErr == nil:
			agreed++
			if !res.Rel.Schema().Equal(inferred) {
				t.Fatalf("trial %d: inferred %v, evaluated %v (q=%s)", trial, inferred, res.Rel.Schema(), q)
			}
		case inferErr == nil && evalErr != nil:
			// Data-dependent failures (e.g. conflicting repair-key
			// weights for one alternative) are invisible to static
			// inference and acceptable; schema-class failures are not.
			if !strings.Contains(evalErr.Error(), "conflicting weights") {
				t.Fatalf("trial %d: inference accepted a plan evaluation rejects: %v (q=%s)", trial, evalErr, q)
			}
		}
	}
	if agreed < 80 {
		t.Fatalf("too few valid plans: %d", agreed)
	}
}

func TestExplain(t *testing.T) {
	db := coinDB()
	_, _, _, qU := coinQueries()
	out := Explain(qU, db)
	for _, want := range []string{"let R", "repair-key", "conf → P1", ":: (CoinType, P)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Bare tree without a database.
	bare := Explain(qU, nil)
	if strings.Contains(bare, "::") {
		t.Error("bare Explain should not annotate schemas")
	}
}
