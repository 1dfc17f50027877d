package algebra_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/urel"
)

// relFingerprint renders a U-relation's tuples — conditions and rows — in
// order.
func relFingerprint(r *urel.Relation) string {
	var b strings.Builder
	for _, ut := range r.Tuples() {
		b.WriteString(ut.D.Key() + "||" + ut.Row.Key() + "\n")
	}
	return b.String()
}

// TestEntryPointsShareOneWalk pins that exact and approximate evaluation
// are one plan walk: on plans without conf / σ̂ — the random plans of the
// evaluator cross-check, and a hand-built repair-key join — the engine's
// approximate entry point returns the exact entry point's tuples in the
// same order, reliable, without sampling, with equal operator statistics.
func TestEntryPointsShareOneWalk(t *testing.T) {
	type fixture struct {
		db *urel.Database
		q  algebra.Query
	}
	var fixtures []fixture
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		db := algebra.RandDB(rng)
		fixtures = append(fixtures, fixture{db, algebra.RandQuery(rng, 1+rng.Intn(2))})
	}
	db := algebra.RandDB(rng)
	db.AddComplete("W", rel.FromRows(rel.NewSchema("A", "V", "Wt"),
		rel.Tuple{rel.Int(0), rel.String("x"), rel.Float(1)},
		rel.Tuple{rel.Int(0), rel.String("y"), rel.Float(3)},
		rel.Tuple{rel.Int(1), rel.String("z"), rel.Float(2)},
	))
	fixtures = append(fixtures, fixture{db, algebra.Join{
		L: algebra.Base{Name: "R"},
		R: algebra.Project{
			In:      algebra.RepairKey{In: algebra.Base{Name: "W"}, Key: []string{"A"}, Weight: "Wt"},
			Targets: []expr.Target{expr.Keep("A"), expr.Keep("V")},
		},
	}})

	checked := 0
	for i, f := range fixtures {
		for _, workers := range []int{1, 4} {
			eng := core.NewEngine(f.db, core.Options{Eps0: 0.05, Delta: 0.1, Seed: 1, Workers: workers})
			exact, exactErr := eng.EvalExact(f.q)
			approx, approxErr := eng.EvalApprox(f.q)
			if (exactErr == nil) != (approxErr == nil) {
				t.Fatalf("fixture %d (%s): exact err %v, approx err %v", i, f.q, exactErr, approxErr)
			}
			if exactErr != nil {
				continue // schema clash in a random plan: both reject it
			}
			checked++
			if got, want := relFingerprint(approx.Rel), relFingerprint(exact.Rel); got != want {
				t.Errorf("fixture %d (%s) workers=%d: approximate tuples\n%swant exact tuples\n%s", i, f.q, workers, got, want)
			}
			if approx.Complete != exact.Complete {
				t.Errorf("fixture %d (%s): completeness %v vs exact %v", i, f.q, approx.Complete, exact.Complete)
			}
			if approx.Bounds.Len() != 0 || approx.Stats.EstimatorTrials != 0 {
				t.Errorf("fixture %d (%s): sampling-free plan reports %d annotated tuples, trials=%d",
					i, f.q, approx.Bounds.Len(), approx.Stats.EstimatorTrials)
			}
			if !reflect.DeepEqual(approx.Stats.Ops, exact.Ops) {
				t.Errorf("fixture %d (%s): operator statistics differ:\napprox %v\nexact  %v", i, f.q, approx.Stats.Ops, exact.Ops)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("too few valid plans: %d", checked)
	}
}
