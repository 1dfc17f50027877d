package predapprox_test

// Figure 3 (Theorem 5.8) as the engine runs it: σ̂_φ over conf[] of a
// one-tuple relation R decides φ on the tuple's confidence through
// core.Engine's doubling loop, the one implementation of Section 5.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dnf"
	"repro/internal/predapprox"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/workload"
)

// decide runs σ̂_φ(R) over conf[] and returns whether R's tuple was kept,
// whether the decision hit the ε₀ floor, and the engine result.
func decide(t *testing.T, db *urel.Database, phi predapprox.Pred, o core.Options) (bool, bool, *core.Result) {
	t.Helper()
	q := algebra.ApproxSelect{In: algebra.Base{Name: "R"}, Args: []algebra.ConfArg{{}}, Pred: phi}
	res, err := core.NewEngine(db, o).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	flagged := res.Stats.SingularDrops > 0
	for _, ut := range res.Rel.Tuples() {
		flagged = flagged || res.IsSingular(ut.Row)
	}
	return res.Rel.Len() > 0, flagged, res
}

// Theorem 5.8: on non-singular inputs, the decision error rate is ≤ δ.
func TestDecideErrorRateWithinDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const eps0, delta = 0.05, 0.1
	runs, wrong := 0, 0
	for trial := 0; trial < 120; trial++ {
		db := urel.NewDatabase()
		f := workload.RandomDNF(rng, db.Vars, 3, 3, 2)
		p := dnf.Confidence(f, db.Vars)
		workload.Lineage(db, "R", f)
		phi := predapprox.Linear([]float64{1}, 0.1+0.8*rng.Float64()) // p ≥ c
		// Skip singular instances (true value too close to the boundary):
		// Theorem 5.8 only covers non-singular points. A margin of at
		// least 2ε₀/(1−2ε₀) certifies p is no 2ε₀-singularity.
		if phi.Margin([]float64{p}) < 2*eps0/(1-2*eps0) {
			continue
		}
		kept, _, _ := decide(t, db, phi, core.Options{Eps0: eps0, Delta: delta, Seed: rng.Int63()})
		runs++
		if kept != phi.Eval([]float64{p}) {
			wrong++
		}
	}
	if runs < 30 {
		t.Fatalf("too few non-singular instances: %d", runs)
	}
	if frac := float64(wrong) / float64(runs); frac > delta {
		t.Errorf("error rate %v exceeds δ=%v (%d/%d)", frac, delta, wrong, runs)
	}
}

// The adaptive algorithm should terminate in far fewer rounds than the
// naive bound ⌈3·log(2/δ)/ε₀²⌉ when the margin is comfortable.
func TestDecideAdaptiveFasterThanNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// A clause set with a confidently high probability vs a low constant:
	// wide margin, so the doubling loop stops early.
	var db *urel.Database
	for p := 0.0; p < 0.3; {
		db = urel.NewDatabase()
		f := workload.RandomDNF(rng, db.Vars, 3, 4, 2)
		p = dnf.Confidence(f, db.Vars)
		workload.Lineage(db, "R", f)
	}
	phi := predapprox.Linear([]float64{1}, 0.05) // p ≥ 0.05 — very wide margin
	o := core.Options{Eps0: 0.02, Delta: 0.05, Seed: rng.Int63()}
	kept, _, res := decide(t, db, phi, o)
	naiveRounds := provenance.RoundsFor(o.Eps0, o.Delta)
	if res.Stats.FinalRounds >= naiveRounds {
		t.Errorf("adaptive used %d rounds, naive bound is %d", res.Stats.FinalRounds, naiveRounds)
	}
	if !kept {
		t.Fatal("decision should be true")
	}
	if b := res.TupleError(res.Rel.Tuples()[0].Row); b > o.Delta {
		t.Errorf("error bound %v > δ", b)
	}
}

// A true value exactly on the boundary: the margin never stabilizes above
// ε₀, but the l₀ round cap guarantees termination with δ(ε₀, l₀) ≤ δ
// (case 2 of the Theorem 5.8 proof), and the decision is flagged.
func TestDecideTerminatesAtSingularity(t *testing.T) {
	const eps0, delta = 0.1, 0.05
	// conf[] over two independent tuples of probability a each is
	// p = 1−(1−a)² = 0.5: two-clause lineage, so the engine samples.
	a := 1 - math.Sqrt(0.5)
	db := workload.TupleIndependent("R", []float64{a, a})
	phi := predapprox.Linear([]float64{1}, 0.5) // p = 0.5 exactly on boundary
	var last core.Progress
	o := core.Options{Eps0: eps0, Delta: delta, Seed: 3, Progress: func(p core.Progress) { last = p }}
	kept, flagged, res := decide(t, db, phi, o)
	if res.Stats.EstimatorTrials <= 0 {
		t.Error("no trials sampled")
	}
	if !last.Done || last.Rounds != last.MaxRounds {
		t.Errorf("singular decision stopped at l=%d, want the l₀ cap %d", last.Rounds, last.MaxRounds)
	}
	if !flagged {
		t.Error("singular instance not flagged")
	}
	if kept {
		if b := res.TupleError(res.Rel.Tuples()[0].Row); b > delta {
			t.Errorf("bound %v should reach δ via δ(ε₀) decay", b)
		}
	}
}

// An exactly known confidence on the boundary — conf = 1 of a certain tuple
// under p ≥ 1 (Example 5.7) — has margin 0, so the decision is flagged as
// ε₀-clamped; nothing is sampled, so it terminates with a zero bound.
func TestHitEpsilonFloorFlagged(t *testing.T) {
	db := urel.NewDatabase()
	db.AddComplete("R", rel.FromRows(rel.NewSchema("ID"), rel.Tuple{rel.Int(0)}))
	phi := predapprox.Linear([]float64{1}, 1)
	kept, flagged, res := decide(t, db, phi, core.Options{Eps0: 0.05, Delta: 0.1, Seed: 1})
	if !flagged {
		t.Error("boundary decision must be flagged as ε₀-clamped")
	}
	if !kept {
		t.Fatal("conf = 1 satisfies p ≥ 1")
	}
	if b := res.TupleError(res.Rel.Tuples()[0].Row); b != 0 {
		t.Errorf("exact bound = %v", b)
	}
}
