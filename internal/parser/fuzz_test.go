package parser

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/rel"
	"repro/internal/urel"
)

// fuzzDB is the fixed database FuzzParse checks and runs programs against:
// R(A, B, W) with positive weights and S(B, C), both complete.
func fuzzDB() *urel.Database {
	db := urel.NewDatabase()
	db.AddComplete("R", rel.FromRows(rel.NewSchema("A", "B", "W"),
		rel.Tuple{rel.Int(1), rel.String("x"), rel.Float(1)},
		rel.Tuple{rel.Int(1), rel.String("y"), rel.Float(3)},
		rel.Tuple{rel.Int(2), rel.String("x"), rel.Float(2)}))
	db.AddComplete("S", rel.FromRows(rel.NewSchema("B", "C"),
		rel.Tuple{rel.String("x"), rel.Int(5)},
		rel.Tuple{rel.String("y"), rel.Int(7)}))
	return db
}

// dataDependent reports whether an evaluation error depends on what the
// database holds — repair-key weights, the completeness of −c's inputs, the
// size of intermediate results — rather than on the schemas compile checks.
func dataDependent(err error) bool {
	var me *urel.MemLimitError
	msg := err.Error()
	return errors.As(err, &me) || strings.Contains(msg, "conflicting weights") ||
		strings.Contains(msg, "is not a positive number") || strings.Contains(msg, "complete by c")
}

// FuzzParse checks that the parser is total: any input either parses or
// returns an error, never panics, and parsed programs re-render through
// the algebra's String() without crashing. Against fuzzDB, schema inference
// and Explain never panic either; a program inference accepts explains
// with a schema on every node and evaluates exactly to the inferred schema,
// unless it fails on the data.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"R",
		"conf(R)",
		"select[A = 1](R)",
		"project[A, B as C](R)",
		"repairkey[K @ W](R)",
		"aselect[p1 / p2 <= 0.5 over conf[A], conf[]](R)",
		"X := conf(R); select[P >= 0.5](X)",
		"union(R, diff(S, T))",
		"select[not (A = 'x') and B >= -2.5e0](R)",
		"project[](R)",
		"((((",
		"select[A ? B](R)",
		"'unterminated",
		"aselect[p1 = 1 over conf[]](R)",
		"X := repairkey[A @ W](R); conf(project[A, C](join(X, S)))",
		"aselect[p1 >= 0.5 over conf[B]](repairkey[A @ W](R))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if q == nil {
			t.Fatal("nil query without error")
		}
		_ = q.String()
		db := fuzzDB()
		schema, err := algebra.InferSchema(q, db)
		explain := algebra.Explain(q, db)
		if err != nil {
			return
		}
		for _, line := range strings.Split(strings.TrimSuffix(explain, "\n"), "\n") {
			if s := strings.TrimSpace(line); s != "in:" && !strings.HasPrefix(s, "def ") && !strings.Contains(line, "  :: (") {
				t.Fatalf("node line without a schema: %q\n%s", line, explain)
			}
		}
		res, err := algebra.NewURelEvaluator(db).WithBudget(urel.NewMemBudget(1 << 22)).Eval(q)
		switch {
		case err != nil && !dataDependent(err):
			t.Fatalf("inference accepted %s, evaluation failed: %v", q, err)
		case err == nil && !res.Rel.Schema().Equal(schema):
			t.Fatalf("%s: inferred %v, evaluated %v", q, schema, res.Rel.Schema())
		}
	})
}
