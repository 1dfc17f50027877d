package algebra

import (
	"strings"
	"testing"

	"repro/internal/dnf"
	"repro/internal/predapprox"
	"repro/internal/sched"
	"repro/internal/vars"
)

// unreliableEstimators is exact evaluation whose σ̂ decisions claim an
// error bound of 0.1 each, like a sampled σ̂ would.
type unreliableEstimators struct{ exactEstimators }

func (u unreliableEstimators) Estimate(table *vars.Table, args [][]dnf.F, decide bool) (Estimates, error) {
	est, err := u.exactEstimators.Estimate(table, args, decide)
	return unreliableEstimates{est}, err
}

type unreliableEstimates struct{ Estimates }

func (u unreliableEstimates) Decide(pred predapprox.Pred, combo []int, mu float64, singular bool) (bool, float64, bool) {
	keep, mu, singular := u.Estimates.Decide(pred, combo, mu, singular)
	return keep, mu + 0.1, singular
}

// TestRejectedLetRestoresBinding pins the let fix: binding an unreliable
// definition is rejected before the name is rebound, and a failure inside
// a let body still restores the outer binding — so a reusable evaluator
// answers the next query from its original database.
func TestRejectedLetRestoresBinding(t *testing.T) {
	db := parallelDB()
	ev := NewURelEvaluator(db).WithEstimators(unreliableEstimators{exactEstimators{sched.New(1)}})
	want := exactFingerprint(URelResult{Rel: db.Rels["R"]})
	shat := ApproxSelect{
		In:   Base{Name: "R"},
		Args: []ConfArg{{Attrs: []string{"K"}}},
		Pred: predapprox.Linear([]float64{1}, 0),
	}
	if res, err := ev.Eval(shat); err != nil || res.Reliable() || res.Rel.Len() == 0 {
		t.Fatalf("fixture: σ̂ must succeed with an unreliable, nonempty result (err %v)", err)
	}

	// Shadowing R with an unreliable definition is rejected...
	_, err := ev.Eval(Let{Name: "R", Def: shat, In: Base{Name: "R"}})
	if err == nil || !strings.Contains(err.Error(), "let-binding") {
		t.Fatalf("unreliable let: err = %v, want a let-binding rejection", err)
	}
	// ...and the next evaluation still sees the original R.
	res, err := ev.Eval(Base{Name: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if exactFingerprint(res) != want {
		t.Error("rejected let left R rebound to its unreliable definition")
	}

	// A rejection inside the body unwinds through the outer let's restore.
	_, err = ev.Eval(Let{Name: "X", Def: Base{Name: "S"}, In: Let{Name: "R", Def: shat, In: Base{Name: "X"}}})
	if err == nil {
		t.Fatal("nested unreliable let must fail")
	}
	if _, bound := ev.DB().Rels["X"]; bound {
		t.Error("failed let body left X bound")
	}
	if res, err := ev.Eval(Base{Name: "R"}); err != nil || exactFingerprint(res) != want {
		t.Errorf("after nested rejection R differs from the original (err %v)", err)
	}
}
