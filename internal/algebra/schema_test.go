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
		_, err := InferSchema(q, db)
		if err == nil {
			t.Errorf("%s: expected schema error", q)
			continue
		}
		// The walker compiles what it runs: it fails before any operator,
		// with the same error.
		if _, evalErr := NewURelEvaluator(db).Eval(q); evalErr == nil || evalErr.Error() != err.Error() {
			t.Errorf("%s: evaluation error %v, want %v", q, evalErr, err)
		}
	}
}

// One pass reports the first error it reaches bottom-up: σ̂'s unknown conf
// attribute, below the repair-key that footnote 3 forbids above it.
func TestTwoErrorPrecedence(t *testing.T) {
	q := RepairKey{In: ApproxSelect{In: Base{Name: "S"}, Args: []ConfArg{{Attrs: []string{"zzz"}}},
		Pred: predapprox.Linear([]float64{1}, 0.5)}, Key: []string{"zzz"}, Weight: "P1"}
	const want = `algebra: σ̂ conf attribute "zzz" not in schema [B C]`
	if _, err := InferSchema(q, inferDB()); err == nil || err.Error() != want {
		t.Errorf("InferSchema: %v, want %s", err, want)
	}
	if _, err := NewURelEvaluator(inferDB()).Eval(q); err == nil || err.Error() != want {
		t.Errorf("Eval: %v, want %s", err, want)
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
		case evalErr == nil || evalErr.Error() != inferErr.Error():
			t.Fatalf("trial %d: inference rejects with %v, evaluation with %v (q=%s)", trial, inferErr, evalErr, q)
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

// A sub-plan that reads a let bound outside it is not closed, so the engine
// memo never answers it by its text: two programs binding X differently
// would otherwise share the first one's rows.
func TestMemoSkipsOuterLets(t *testing.T) {
	db := urel.NewDatabase()
	tr, big := rel.NewRelation(rel.NewSchema("G", "I", "W")), rel.NewRelation(rel.NewSchema("Z"))
	for i := 0; i < 6; i++ {
		tr.Add(rel.Tuple{rel.Int(int64(i / 2)), rel.Int(int64(i)), rel.Float(float64(1 + i))})
	}
	for i := 0; i < 100; i++ { // room in the memo's bound for the body's entry
		big.Add(rel.Tuple{rel.Int(int64(i))})
	}
	db.AddComplete("T", tr)
	db.AddComplete("Big", big)
	memo := NewSubplanMemo(db)
	body := Conf{In: Project{In: RepairKey{In: Base{Name: "X"}, Key: []string{"G"}, Weight: "W"},
		Targets: []expr.Target{expr.Keep("G")}}}
	for _, c := range []struct {
		min  int64
		want int
	}{{0, 3}, {100, 0}} {
		q := Let{Name: "X", Def: Select{In: Base{Name: "T"}, Pred: expr.Ge(expr.A("G"), expr.CInt(c.min))}, In: body}
		res, err := NewURelEvaluator(db).WithMemo(memo).Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Len() != c.want {
			t.Errorf("X := σ[G >= %d](T): %d rows, want %d", c.min, res.Rel.Len(), c.want)
		}
	}
	if _, _, hits, _ := memo.Stats(); hits != 0 {
		t.Errorf("%d memo hits across two different lets", hits)
	}
}
