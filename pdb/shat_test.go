package pdb

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/algebra"
)

// shatDB is a small repair-key database with two grouping attributes, so
// multi-argument σ̂ joins arguments over distinct, overlapping and empty
// attribute sets.
func shatDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewBuilder().
		Table("R", []string{"K", "A", "B", "W"},
			[]any{1, "a1", "b1", 3.0}, []any{1, "a2", "b1", 1.0},
			[]any{2, "a1", "b2", 1.0}, []any{2, "a2", "b2", 1.0},
			[]any{3, "a1", "b1", 2.0}, []any{3, "a3", "b2", 2.0}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestApproxSelectColumnsAgree pins σ̂'s one composition: for multi-argument
// σ̂, the static schema (InferSchema / Explain), exact evaluation and
// approximate evaluation report the same columns, and the exact rows are
// the possible-worlds reference's.
func TestApproxSelectColumnsAgree(t *testing.T) {
	ctx := context.Background()
	db := shatDB(t)
	for _, args := range []string{"conf[A], conf[B]", "conf[A,B], conf[B]", "conf[A], conf[]"} {
		q, err := db.Prepare(`aselect[p1 >= 0.1 and p2 >= 0.1 over ` + args + `](project[A, B](repairkey[K @ W](R)))`)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := algebra.InferSchema(q.plan, db.udb)
		if err != nil {
			t.Fatal(err)
		}
		want := []string(schema)
		exact, err := q.EvalExact(ctx)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := q.Eval(ctx, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exact.Columns(), want) || !reflect.DeepEqual(approx.Columns(), want) {
			t.Errorf("%s: columns exact %v, approximate %v, inferred %v", args, exact.Columns(), approx.Columns(), want)
		}

		wev, err := algebra.NewWorldsEvaluatorFromURel(db.udb, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		wdb, name, err := wev.Eval(q.plan)
		if err != nil {
			t.Fatal(err)
		}
		ref := wdb.Worlds[0].Rels[name]
		if !reflect.DeepEqual([]string(ref.Schema()), want) {
			t.Errorf("%s: worlds reference columns %v, inferred %v", args, ref.Schema(), want)
		}
		if exact.Len() == 0 || exact.Len() != ref.Len() {
			t.Fatalf("%s: %d exact rows, %d reference rows (want equal, nonzero)", args, exact.Len(), ref.Len())
		}
		k := 2 // confidence columns
		for row := range exact.Rows() {
			found := false
			for _, r := range ref.Tuples() {
				n := len(r) - k
				if !r[:n].Equal(row.vals[:n]) {
					continue
				}
				found = true
				for i := n; i < len(r); i++ {
					if math.Abs(r[i].AsFloat()-row.vals[i].AsFloat()) > 1e-9 {
						t.Errorf("%s: row %v, reference %v", args, row.vals, r)
					}
				}
			}
			if !found {
				t.Errorf("%s: exact row %v missing from the reference", args, row.vals)
			}
		}
	}
}

// TestApproxSelectJoinIsBudgeted pins that σ̂'s argument join is charged to
// the memory budget: a two-argument σ̂ over disjoint attribute sets joins
// to |A|·|B| combinations, which must trip WithMaxMemory on both paths.
func TestApproxSelectJoinIsBudgeted(t *testing.T) {
	ctx := context.Background()
	rows := make([][]any, 300)
	for i := range rows {
		rows[i] = []any{i, i, 1.0}
	}
	db, err := NewBuilder().Table("R", []string{"A", "B", "W"}, rows...).Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(`aselect[p1 >= 0.5 and p2 >= 0.5 over conf[A], conf[B]](project[A, B](repairkey[A @ W](R)))`)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 20 // the inputs fit; the 90 000 combinations do not
	var le *LimitError
	if _, err := q.Eval(ctx, WithMaxMemory(budget)); !errors.As(err, &le) || le.Resource != "memory" {
		t.Errorf("Eval: err = %v, want a memory *LimitError", err)
	}
	if _, err := q.EvalExact(ctx, WithMaxMemory(budget)); !errors.As(err, &le) || le.Resource != "memory" {
		t.Errorf("EvalExact: err = %v, want a memory *LimitError", err)
	}
	if res, err := q.Eval(ctx); err != nil {
		t.Errorf("unlimited Eval: %v", err)
	} else if res.Len() != 300*300 {
		t.Errorf("unlimited Eval: %d rows, want 90000", res.Len())
	}
}
