package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// coinDB is the Example 2.2 database.
func coinDB() *urel.Database {
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
	return db
}

// coinT builds the query T of Example 2.2 with Let bindings.
func coinT() algebra.Query {
	rDef := algebra.Project{
		In:      algebra.RepairKey{In: algebra.Base{Name: "Coins"}, Weight: "Count"},
		Targets: []expr.Target{expr.Keep("CoinType")},
	}
	sDef := algebra.Project{
		In: algebra.RepairKey{
			In:     algebra.Product{L: algebra.Base{Name: "Faces"}, R: algebra.Base{Name: "Tosses"}},
			Key:    []string{"CoinType", "Toss"},
			Weight: "FProb",
		},
		Targets: []expr.Target{expr.Keep("CoinType"), expr.Keep("Toss"), expr.Keep("Face")},
	}
	headsAt := func(toss int64) algebra.Query {
		return algebra.Project{
			In: algebra.Select{
				In: algebra.Base{Name: "S"},
				Pred: expr.AndOf(
					expr.Eq(expr.A("Toss"), expr.CInt(toss)),
					expr.Eq(expr.A("Face"), expr.CStr("H")),
				),
			},
			Targets: []expr.Target{expr.Keep("CoinType")},
		}
	}
	tDef := algebra.Join{
		L: algebra.Join{L: algebra.Base{Name: "R"}, R: headsAt(1)},
		R: headsAt(2),
	}
	return algebra.Let{Name: "R", Def: rDef,
		In: algebra.Let{Name: "S", Def: sDef, In: tDef}}
}

func TestEvalExactDelegates(t *testing.T) {
	eng := NewEngine(coinDB(), Options{Eps0: 0.05, Delta: 0.1})
	res, err := eng.EvalExact(algebra.Conf{In: coinT()})
	if err != nil {
		t.Fatal(err)
	}
	p := urel.Poss(res.Rel)
	for _, tp := range p.Tuples() {
		ct := p.Value(tp, "CoinType").AsString()
		want := 1.0 / 6
		if ct == "2headed" {
			want = 1.0 / 3
		}
		if got := p.Value(tp, "P").AsFloat(); math.Abs(got-want) > 1e-9 {
			t.Errorf("conf(T)[%s] = %v, want %v", ct, got, want)
		}
	}
}

// Approximate conf on the coin example: the posterior computed from
// estimated confidences is within the FPRAS tolerance of 1/3 and 2/3.
func TestApproxConfCoinPosterior(t *testing.T) {
	eng := NewEngine(coinDB(), Options{Eps0: 0.05, Delta: 0.05, ConfEps: 0.02, ConfDelta: 0.01, Seed: 7})
	u := algebra.Project{
		In: algebra.Product{
			L: algebra.Conf{In: coinT(), As: "P1"},
			R: algebra.Conf{In: algebra.Project{In: coinT(), Targets: nil}, As: "P2"},
		},
		Targets: []expr.Target{
			expr.Keep("CoinType"),
			expr.As("P", expr.Div(expr.A("P1"), expr.A("P2"))),
		},
	}
	res, err := eng.EvalApprox(u)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Error("U should be complete")
	}
	p := urel.Poss(res.Rel)
	if p.Len() != 2 {
		t.Fatalf("U has %d tuples, want 2:\n%s", p.Len(), p)
	}
	for _, tp := range p.Tuples() {
		ct := p.Value(tp, "CoinType").AsString()
		want := 1.0 / 3
		if ct == "2headed" {
			want = 2.0 / 3
		}
		got := p.Value(tp, "P").AsFloat()
		// Two ε=2% estimates composed: allow ~3x tolerance.
		if math.Abs(got-want) > 0.06*want {
			t.Errorf("posterior[%s] = %v, want ≈%v", ct, got, want)
		}
	}
}

// sensorDB builds a tuple-independent relation R(ID) where tuple i has
// confidence pi, via one repair-key per tuple on an auxiliary relation.
func sensorDB(probs []float64) (*urel.Database, *urel.Relation) {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	for i, p := range probs {
		v := db.Vars.Add("t"+strconv.Itoa(i), []float64{p, 1 - p}, []string{"in", "out"})
		r.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
	}
	db.AddURelation("R", r, false)
	return db, r
}

// Theorem 6.7 / σ̂: across repeated approximate evaluations, membership
// decisions for non-singular tuples are wrong at most a δ fraction of the
// time, and reported bounds are ≤ δ.
func TestApproxSelectErrorRate(t *testing.T) {
	// Confidences comfortably away from the threshold 0.5, plus shared
	// variables to make lineages multi-clause (so real estimation runs).
	db := urel.NewDatabase()
	x := db.Vars.Add("x", []float64{0.6, 0.4}, nil)
	y := db.Vars.Add("y", []float64{0.7, 0.3}, nil)
	z := db.Vars.Add("z", []float64{0.25, 0.75}, nil)
	r := urel.NewRelation(rel.NewSchema("ID"))
	// Tuple 0: x=0 ∨ y=0 → p = 1−0.4·0.3 = 0.88 (above 0.5).
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(0)})
	r.Add(vars.MustAssignment(vars.Binding{Var: y, Alt: 0}), rel.Tuple{rel.Int(0)})
	// Tuple 1: z=0 ∧ x=0, or z=0 ∧ y=0 → p = 0.25·(1−0.4·0.3) = 0.22.
	r.Add(vars.MustAssignment(vars.Binding{Var: z, Alt: 0}, vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(1)})
	r.Add(vars.MustAssignment(vars.Binding{Var: z, Alt: 0}, vars.Binding{Var: y, Alt: 0}), rel.Tuple{rel.Int(1)})
	db.AddURelation("R", r, false)

	q := algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.5),
	}
	// Exact answer: only tuple 0 qualifies.
	const delta = 0.1
	wrong, runs := 0, 60
	for i := 0; i < runs; i++ {
		eng := NewEngine(db, Options{Eps0: 0.05, Delta: delta, Seed: int64(i)})
		res, err := eng.EvalApprox(q)
		if err != nil {
			t.Fatal(err)
		}
		poss := urel.Poss(res.Rel)
		ok := poss.Len() == 1 && rel.Equal(poss.Tuples()[0][0], rel.Int(0))
		if !ok {
			wrong++
		}
		if b := res.MaxNonSingularError(); b > delta+1e-9 {
			t.Errorf("run %d: reported bound %v > δ", i, b)
		}
		if res.Stats.FinalRounds <= 0 || res.Stats.Decisions != 2 {
			t.Errorf("run %d: odd stats %+v", i, res.Stats)
		}
	}
	if frac := float64(wrong) / float64(runs); frac > delta {
		t.Errorf("σ̂ error rate %v exceeds δ=%v", frac, delta)
	}
}

// A predicate boundary exactly at a tuple's true confidence is flagged as
// singular rather than silently decided.
func TestApproxSelectSingularFlagged(t *testing.T) {
	db := urel.NewDatabase()
	x := db.Vars.Add("x", []float64{0.5, 0.5}, nil)
	y := db.Vars.Add("y", []float64{0.5, 0.5}, nil)
	r := urel.NewRelation(rel.NewSchema("ID"))
	// p(0) = 1 − 0.25 = 0.75: exactly on the threshold below.
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(0)})
	r.Add(vars.MustAssignment(vars.Binding{Var: y, Alt: 0}), rel.Tuple{rel.Int(0)})
	db.AddURelation("R", r, false)

	q := algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.75),
	}
	flagged := 0
	for i := 0; i < 10; i++ {
		eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: int64(100 + i)})
		res, err := eng.EvalApprox(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, singular := res.Bounds.Worst(false); singular || res.Stats.SingularDrops > 0 {
			flagged++
		}
	}
	if flagged < 8 {
		t.Errorf("singular boundary flagged in only %d/10 runs", flagged)
	}
}

// Figure 3's stopping rule counts every decision, singular-looking or not:
// a tuple whose true confidence clears the threshold by more than ε₀ is
// refined until its bound holds, never settled on an early estimate that
// happened to land within ε₀ of the boundary and dropped as singular.
func TestNearBoundaryTupleKept(t *testing.T) {
	const p, eps0, delta, seeds = 0.55, 0.02, 0.1, 40
	a := 1 - math.Sqrt(1-p) // conf[] of two independent tuples: 1−(1−a)² = p
	db, _ := sensorDB([]float64{a, a})
	q := algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{}},
		Pred: predapprox.Linear([]float64{1}, 0.5),
	}
	kept := 0
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := NewEngine(db, Options{Eps0: eps0, Delta: delta, Seed: seed}).EvalApprox(q)
		if err != nil {
			t.Fatal(err)
		}
		kept += urel.Poss(res.Rel).Len()
	}
	if kept < (1-delta)*seeds {
		t.Errorf("p = %v ≥ 0.5 kept on %d of %d seeds, want ≥ %v", p, kept, seeds, (1-delta)*seeds)
	}
}

// Example 6.5 fan-in: projecting n unreliable tuples onto one value sums
// their error bounds.
func TestProjectionFanInErrors(t *testing.T) {
	const n = 5
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 0.9
	}
	db, _ := sensorDB(probs)
	// σ̂ keeps every tuple (threshold 0.5 ≪ 0.9), then project all IDs to
	// a single constant column.
	q := algebra.Project{
		In: algebra.ApproxSelect{
			In:   algebra.Base{Name: "R"},
			Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
			Pred: predapprox.Linear([]float64{1}, 0.5),
		},
		Targets: []expr.Target{expr.As("C", expr.CInt(1))},
	}
	eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 5})
	res, err := eng.EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	poss := urel.Poss(res.Rel)
	if poss.Len() != 1 {
		t.Fatalf("projection result = %d tuples", poss.Len())
	}
	// Singleton-lineage tuples are exact (δᵢ=0), so per-tuple σ̂ errors
	// are 0 here and the fan-in sum is 0 — the bound must still be ≤ δ
	// and the evaluation must not have flagged singularities.
	if res.MaxNonSingularError() > 0.1 {
		t.Errorf("fan-in bound %v > δ", res.MaxNonSingularError())
	}
	if _, singular := res.Bounds.Worst(false); singular {
		t.Errorf("unexpected singular flags")
	}
}

// The fan-in sum with genuinely noisy tuples: per-tuple bounds add up
// across a projection.
func TestProjectionFanInSumsBounds(t *testing.T) {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	for i := 0; i < 4; i++ {
		x := db.Vars.Add("x"+strconv.Itoa(i), []float64{0.8, 0.2}, nil)
		y := db.Vars.Add("y"+strconv.Itoa(i), []float64{0.8, 0.2}, nil)
		// Two clauses: p = 1 − 0.2·0.2 = 0.96.
		r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
		r.Add(vars.MustAssignment(vars.Binding{Var: y, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
	}
	db.AddURelation("R", r, false)
	sel := algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.5),
	}
	proj := algebra.Project{In: sel, Targets: []expr.Target{expr.As("C", expr.CInt(1))}}

	eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.2, Seed: 11, InitialRounds: 64, MaxRounds: 64})
	selRes, err := eng.EvalApprox(sel)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(db, Options{Eps0: 0.05, Delta: 0.2, Seed: 11, InitialRounds: 64, MaxRounds: 64})
	projRes, err := eng2.EvalApprox(proj)
	if err != nil {
		t.Fatal(err)
	}
	if urel.Poss(projRes.Rel).Len() != 1 {
		t.Fatal("expected single projected tuple")
	}
	var projErr float64
	for row := range projRes.Bounds.All() {
		projErr = projRes.TupleError(row)
	}
	sum := 0.0
	for row := range selRes.Bounds.All() {
		sum += selRes.TupleError(row)
	}
	if sum == 0 {
		t.Fatal("expected nonzero per-tuple bounds (multi-clause lineage)")
	}
	// Same seed/rounds → same estimates; the projected bound is the sum.
	if math.Abs(projErr-sum) > 1e-9 {
		t.Errorf("fan-in bound %v != sum of per-tuple bounds %v", projErr, sum)
	}
}

// A tight margin makes the σ̂ double its own rounds, each reported to
// Progress, without walking the plan again.
func TestDoublingLoopRestartsOnTightMargin(t *testing.T) {
	db := urel.NewDatabase()
	x := db.Vars.Add("x", []float64{0.5, 0.5}, nil)
	y := db.Vars.Add("y", []float64{0.5, 0.5}, nil)
	r := urel.NewRelation(rel.NewSchema("ID"))
	// p = 0.75; threshold 0.7 → margin ~0.07: needs many rounds.
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(0)})
	r.Add(vars.MustAssignment(vars.Binding{Var: y, Alt: 0}), rel.Tuple{rel.Int(0)})
	db.AddURelation("R", r, false)
	q := algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.7),
	}
	var rounds []int64
	eng := NewEngine(db, Options{Eps0: 0.02, Delta: 0.05, Seed: 3, Progress: func(p Progress) {
		if !p.Done {
			rounds = append(rounds, p.Rounds)
		}
	}})
	res, err := eng.EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) < 2 || rounds[len(rounds)-1] != res.Stats.FinalRounds {
		t.Errorf("tight margin should force at least one doubling: rounds %v, final l = %d", rounds, res.Stats.FinalRounds)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] != 2*rounds[i-1] {
			t.Errorf("round %d ran at l = %d after l = %d, want doubled", i, rounds[i], rounds[i-1])
		}
	}
	if res.Stats.Restarts != 0 || res.Stats.Ops["lineage"].Calls != 1 {
		t.Errorf("%d re-walks, lineage grouped %d times; want the plan walked once", res.Stats.Restarts, res.Stats.Ops["lineage"].Calls)
	}
}

func TestRepairKeyOverUnreliableRejected(t *testing.T) {
	db, _ := sensorDB([]float64{0.9})
	q := algebra.RepairKey{
		In: algebra.ApproxSelect{
			In:   algebra.Base{Name: "R"},
			Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
			Pred: predapprox.Linear([]float64{1}, 0.5),
		},
		Weight: "P1",
	}
	eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1})
	if _, err := eng.EvalApprox(q); err == nil {
		t.Error("repair-key above σ̂ must be rejected")
	}
}

// Determinism: same seed, same result.
func TestEngineDeterministic(t *testing.T) {
	db, _ := sensorDB([]float64{0.9, 0.4, 0.7})
	q := algebra.Conf{In: algebra.Base{Name: "R"}}
	r1, err := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 42}).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 42}).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	if !urel.Poss(r1.Rel).Equal(urel.Poss(r2.Rel)) {
		t.Error("same seed produced different results")
	}
}

// Randomized agreement: approximate σ̂ vs exact σ̂ on random
// tuple-independent databases with comfortable thresholds.
func TestApproxMatchesExactOnComfortableInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		probs := make([]float64, n)
		for i := range probs {
			if rng.Intn(2) == 0 {
				probs[i] = 0.05 + 0.2*rng.Float64() // well below 0.5
			} else {
				probs[i] = 0.75 + 0.2*rng.Float64() // well above 0.5
			}
		}
		db, _ := sensorDB(probs)
		q := algebra.ApproxSelect{
			In:   algebra.Base{Name: "R"},
			Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
			Pred: predapprox.Linear([]float64{1}, 0.5),
		}
		exact, err := algebra.NewURelEvaluator(db).Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.05, Seed: int64(trial)})
		approx, err := eng.EvalApprox(q)
		if err != nil {
			t.Fatal(err)
		}
		ep, ap := urel.Poss(exact.Rel), urel.Poss(approx.Rel)
		if ep.Len() != ap.Len() {
			t.Fatalf("trial %d: exact %d vs approx %d tuples", trial, ep.Len(), ap.Len())
		}
		// Compare ID columns (P values are estimates).
		eIDs, aIDs := ep.Project("ID"), ap.Project("ID")
		if !eIDs.Equal(aIDs) {
			t.Fatalf("trial %d: membership mismatch\nexact:\n%s\napprox:\n%s", trial, eIDs, aIDs)
		}
	}
}
