package algebra

import (
	"strings"
	"testing"

	"repro/internal/predapprox"
	"repro/internal/provenance"
)

// unreliableEstimators is exact evaluation whose σ̂ outputs claim a
// membership-error bound of 0.1 per tuple, like a sampled σ̂ would.
type unreliableEstimators struct{ exactEstimators }

func (u unreliableEstimators) ApproxSelect(e *URelEvaluator, in URelResult, n ApproxSelect) (URelResult, error) {
	out, err := u.exactEstimators.ApproxSelect(e, in, n)
	if err != nil {
		return out, err
	}
	out.Errs = provenance.ErrMap{}
	for _, ut := range out.Rel.Tuples() {
		out.Errs[ut.Row.Key()] = 0.1
	}
	return out, nil
}

// TestRejectedLetRestoresBinding pins the let fix: binding an unreliable
// definition is rejected before the name is rebound, and a failure inside
// a let body still restores the outer binding — so a reusable evaluator
// answers the next query from its original database.
func TestRejectedLetRestoresBinding(t *testing.T) {
	db := parallelDB()
	ev := NewURelEvaluator(db).WithEstimators(unreliableEstimators{}, false)
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
