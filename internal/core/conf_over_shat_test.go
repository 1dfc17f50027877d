package core

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// multiClauseDB builds R(ID) with n tuples of two-clause lineage
// p = 1 − (1−a)² each.
func multiClauseDB(n int, a float64) *urel.Database {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	for i := 0; i < n; i++ {
		x := db.Vars.Add("x"+strconv.Itoa(i), []float64{a, 1 - a}, nil)
		y := db.Vars.Add("y"+strconv.Itoa(i), []float64{a, 1 - a}, nil)
		r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
		r.Add(vars.MustAssignment(vars.Binding{Var: y, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
	}
	db.AddURelation("R", r, false)
	return db
}

// Lemma 6.4(2) path: conf applied above σ̂ — the conf tuples inherit the
// unreliability of their σ̂ provenance.
func TestConfOverApproxSelectPropagatesErrors(t *testing.T) {
	db := multiClauseDB(3, 0.8) // p = 0.96 per tuple, threshold 0.5
	q := algebra.Conf{
		In: algebra.Project{
			In: algebra.ApproxSelect{
				In:   algebra.Base{Name: "R"},
				Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
				Pred: predapprox.Linear([]float64{1}, 0.5),
			},
			Targets: []expr.Target{expr.Keep("ID")},
		},
		As: "PC",
	}
	eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 17, InitialRounds: 64, MaxRounds: 64})
	res, err := eng.EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Error("conf output must be complete")
	}
	out := urel.Poss(res.Rel)
	if out.Len() != 3 {
		t.Fatalf("conf rows = %d, want 3", out.Len())
	}
	// σ̂ output is complete, so conf over it gives P = 1 per surviving
	// tuple; the interesting part is the inherited error bound.
	anyErr := false
	for _, tp := range out.Tuples() {
		if p := out.Value(tp, "PC").AsFloat(); math.Abs(p-1) > 1e-12 {
			t.Errorf("conf of complete tuple = %v, want 1", p)
		}
		if res.TupleError(tp) > 0 {
			anyErr = true
		}
	}
	if !anyErr {
		t.Error("conf tuples should inherit σ̂ unreliability bounds")
	}
}

// Poss and Cert above σ̂ keep the unreliability maps keyed correctly.
func TestPossCertOverApproxSelect(t *testing.T) {
	db := multiClauseDB(2, 0.8)
	shat := algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.5),
	}
	eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 5, InitialRounds: 64, MaxRounds: 64})
	poss, err := eng.EvalApprox(algebra.Poss{In: shat})
	if err != nil {
		t.Fatal(err)
	}
	if poss.Rel.Len() != 2 || !poss.Complete {
		t.Errorf("poss over σ̂: len=%d complete=%v", poss.Rel.Len(), poss.Complete)
	}
	if worst, _ := poss.Bounds.Worst(false); worst == 0 {
		t.Error("poss should carry σ̂ bounds")
	}
	cert, err := eng.EvalApprox(algebra.Cert{In: shat})
	if err != nil {
		t.Fatal(err)
	}
	// σ̂ output is complete, so all its tuples are certain.
	if cert.Rel.Len() != 2 {
		t.Errorf("cert over σ̂: len=%d, want 2", cert.Rel.Len())
	}
}

// Select and Join over σ̂ outputs preserve per-tuple bounds per the ≺
// rules.
func TestSelectJoinOverApproxSelect(t *testing.T) {
	db := multiClauseDB(4, 0.8)
	shat := algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.5),
	}
	opts := Options{Eps0: 0.05, Delta: 0.2, Seed: 8, InitialRounds: 64, MaxRounds: 64}

	base, err := NewEngine(db, opts).EvalApprox(shat)
	if err != nil {
		t.Fatal(err)
	}
	sel := algebra.Select{In: shat, Pred: expr.Le(expr.A("ID"), expr.CInt(1))}
	selRes, err := NewEngine(db, opts).EvalApprox(sel)
	if err != nil {
		t.Fatal(err)
	}
	if selRes.Rel.Len() != 2 {
		t.Fatalf("selection kept %d tuples, want 2", selRes.Rel.Len())
	}
	// Same seed and rounds → identical estimates, so the surviving
	// tuples' bounds match the unfiltered run's.
	for _, ut := range selRes.Rel.Tuples() {
		if math.Abs(selRes.TupleError(ut.Row)-base.TupleError(ut.Row)) > 1e-12 {
			t.Errorf("selection changed bound for %v", ut.Row)
		}
	}

	// Join of the σ̂ output with a complete relation adds bounds (the
	// complete side contributes 0).
	names := rel.FromRows(rel.NewSchema("ID", "Label"),
		rel.Tuple{rel.Int(0), rel.String("a")},
		rel.Tuple{rel.Int(1), rel.String("b")},
	)
	db2 := multiClauseDB(4, 0.8)
	db2.AddComplete("Names", names)
	join := algebra.Join{L: shat, R: algebra.Base{Name: "Names"}}
	joinRes, err := NewEngine(db2, opts).EvalApprox(join)
	if err != nil {
		t.Fatal(err)
	}
	if joinRes.Rel.Len() != 2 {
		t.Fatalf("join kept %d tuples, want 2", joinRes.Rel.Len())
	}
	for _, ut := range joinRes.Rel.Tuples() {
		if joinRes.TupleError(ut.Row) <= 0 {
			t.Errorf("join output lost σ̂ bound for %v", ut.Row)
		}
	}
}

// DiffC over unreliable complete relations uses the conservative bound.
func TestDiffOverApproxSelect(t *testing.T) {
	db := multiClauseDB(3, 0.8)
	shat := algebra.Project{
		In: algebra.ApproxSelect{
			In:   algebra.Base{Name: "R"},
			Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
			Pred: predapprox.Linear([]float64{1}, 0.5),
		},
		Targets: []expr.Target{expr.Keep("ID")},
	}
	keep := rel.FromRows(rel.NewSchema("ID"), rel.Tuple{rel.Int(0)})
	db.AddComplete("Drop", keep)
	diff := algebra.DiffC{L: shat, R: algebra.Base{Name: "Drop"}}
	eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.2, Seed: 9, InitialRounds: 64, MaxRounds: 64})
	res, err := eng.EvalApprox(diff)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 {
		t.Fatalf("diff kept %d tuples, want 2", res.Rel.Len())
	}
	for _, ut := range res.Rel.Tuples() {
		if res.TupleError(ut.Row) <= 0 {
			t.Errorf("diff output lost bound for %v", ut.Row)
		}
	}
}
