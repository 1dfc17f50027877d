package algebra

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// randDB builds a small random U-relational database with two uncertain
// relations R(A,B), S(B,C) and a complete weighted relation K(A,W).
func randDB(rng *rand.Rand) *urel.Database {
	db := urel.NewDatabase()
	nv := 2 + rng.Intn(3)
	for i := 0; i < nv; i++ {
		p := 0.2 + 0.6*rng.Float64()
		db.Vars.Add("v"+strconv.Itoa(i), []float64{p, 1 - p}, nil)
	}
	randAssign := func() vars.Assignment {
		var bs []vars.Binding
		for v := 0; v < nv; v++ {
			if rng.Intn(3) == 0 {
				bs = append(bs, vars.Binding{Var: vars.Var(v), Alt: int32(rng.Intn(2))})
			}
		}
		a, _ := vars.NewAssignment(bs...)
		return a
	}
	r := urel.NewRelation(rel.NewSchema("A", "B"))
	for i := 0; i < 2+rng.Intn(4); i++ {
		r.Add(randAssign(), rel.Tuple{rel.Int(int64(rng.Intn(3))), rel.Int(int64(rng.Intn(3)))})
	}
	s := urel.NewRelation(rel.NewSchema("B", "C"))
	for i := 0; i < 2+rng.Intn(4); i++ {
		s.Add(randAssign(), rel.Tuple{rel.Int(int64(rng.Intn(3))), rel.Int(int64(rng.Intn(3)))})
	}
	k := rel.NewRelation(rel.NewSchema("A", "W"))
	for i := 0; i < 2+rng.Intn(3); i++ {
		k.Add(rel.Tuple{rel.Int(int64(rng.Intn(2))), rel.Float(0.2 + rng.Float64())})
	}
	db.AddURelation("R", r, false)
	db.AddURelation("S", s, false)
	db.AddComplete("K", k)
	return db
}

// randQuery builds a random positive UA query over the random database.
func randQuery(rng *rand.Rand, depth int) Query {
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return Base{Name: "R"}
		case 1:
			return Base{Name: "S"}
		default:
			return Project{
				In:      RepairKey{In: Base{Name: "K"}, Key: nil, Weight: "W"},
				Targets: []expr.Target{expr.Keep("A")},
			}
		}
	}
	switch rng.Intn(6) {
	case 0:
		in := randQuery(rng, depth-1)
		return Select{In: in, Pred: expr.Le(expr.A("B"), expr.CInt(int64(rng.Intn(3))))}
	case 1:
		in := randQuery(rng, depth-1)
		return Project{In: in, Targets: []expr.Target{expr.Keep("B")}}
	case 2:
		return Join{L: randQuery(rng, depth-1), R: Base{Name: "S"}}
	case 3:
		l := randQuery(rng, depth-1)
		return Union{L: l, R: l}
	case 4:
		return Join{L: Base{Name: "R"}, R: randQuery(rng, depth-1)}
	default:
		in := randQuery(rng, depth-1)
		return Select{In: in, Pred: expr.Ge(expr.Add(expr.A("B"), expr.CInt(0)), expr.CInt(1))}
	}
}

// randApproxSelect wraps a random plan in a two-argument σ̂ over distinct
// attribute sets of the plan's schema (one may be empty: conf[∅]), with a
// random linear predicate; ok is false when the plan does not type-check.
func randApproxSelect(rng *rand.Rand, db *urel.Database, in Query) (q Query, ok bool) {
	schema, err := InferSchema(in, db)
	if err != nil {
		return nil, false
	}
	var args [2]ConfArg
	for {
		for i := range args {
			args[i].Attrs = nil
			for _, a := range schema {
				if rng.Intn(2) == 0 {
					args[i].Attrs = append(args[i].Attrs, a)
				}
			}
		}
		if strings.Join(args[0].Attrs, ",") != strings.Join(args[1].Attrs, ",") {
			break
		}
	}
	return ApproxSelect{
		In:   in,
		Args: args[:],
		Pred: predapprox.Linear([]float64{1, 1}, 0.1+rng.Float64()),
	}, true
}

// normalizeQuery wraps plans so both branches have compatible schemas for
// Union/Join: we restrict to plans that keep attribute B available by
// construction above (projections to B, joins on B). A plan whose schemas
// clash is skipped.
func evalBothWays(t *testing.T, db *urel.Database, q Query) (uconf, wconf *rel.Relation, skip bool) {
	t.Helper()
	ev := NewURelEvaluator(db)
	res, err := ev.Eval(Conf{In: q, As: "P"})
	if err != nil {
		return nil, nil, true // schema clash etc.: skip this random plan
	}
	wev, err := NewWorldsEvaluatorFromURel(db, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := wev.EvalConf(q, "P")
	if err != nil {
		t.Fatalf("worlds evaluator failed where urel succeeded: %v (q=%s)", err, q)
	}
	return urel.Poss(res.Rel), wc, false
}

// TestEvaluatorsAgreeOnRandomPlans is the central equivalence check: for
// random positive UA[conf, repair-key] plans, the U-relational evaluator
// and the possible-worlds reference produce identical confidence tables.
func TestEvaluatorsAgreeOnRandomPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	checked, shats := 0, 0
	for trial := 0; trial < 90; trial++ {
		db := randDB(rng)
		q := randQuery(rng, 1+rng.Intn(2))
		if trial%3 == 0 {
			// σ̂'s output is complete: the confidence tables compared below
			// hold its rows (P1, P2 included) at confidence 1.
			shat, ok := randApproxSelect(rng, db, q)
			if !ok {
				continue
			}
			q = shat
			shats++
		}
		uconf, wconf, skip := evalBothWays(t, db, q)
		if skip {
			continue
		}
		checked++
		if uconf.Len() != wconf.Len() {
			t.Fatalf("trial %d: result sizes differ: urel %d vs worlds %d\nq=%s\nurel:\n%s\nworlds:\n%s",
				trial, uconf.Len(), wconf.Len(), q, uconf, wconf)
		}
		for _, tp := range uconf.Tuples() {
			i := wconf.Pos(findMatch(wconf, tp))
			ok := i >= 0
			if !ok {
				t.Fatalf("trial %d: tuple %v missing in worlds result (q=%s)", trial, tp, q)
			}
			stored := wconf.Tuples()[i]
			pu := tp[len(tp)-1].AsFloat()
			pw := stored[len(stored)-1].AsFloat()
			if math.Abs(pu-pw) > 1e-9 {
				t.Fatalf("trial %d: confidence mismatch for %v: urel %v vs worlds %v (q=%s)", trial, tp, pu, pw, q)
			}
		}
	}
	if checked < 25 || shats < 15 {
		t.Fatalf("too few valid random plans: %d, %d of them σ̂", checked, shats)
	}
}

// findMatch finds in wconf a tuple whose data columns (all but last) equal
// tp's, tolerating confidence differences which are checked separately —
// and last-ulp differences in numeric data columns, which under σ̂ are
// confidences too (P1…Pk, summed in a different order by each evaluator).
func findMatch(wconf *rel.Relation, tp rel.Tuple) rel.Tuple {
next:
	for _, cand := range wconf.Tuples() {
		for i, v := range tp[:len(tp)-1] {
			if !rel.Equal(cand[i], v) && !(math.Abs(cand[i].AsFloat()-v.AsFloat()) <= 1e-9) {
				continue next
			}
		}
		return cand
	}
	return nil
}

// σ̂ with exact confidences must agree across the two evaluators as well.
func TestApproxSelectExactAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	for trial := 0; trial < 25; trial++ {
		db := randDB(rng)
		thresh := 0.2 + 0.6*rng.Float64()
		q := ApproxSelect{
			In:   Base{Name: "R"},
			Args: []ConfArg{{Attrs: []string{"A"}}},
			Pred: predapprox.Linear([]float64{1}, thresh),
		}
		ev := NewURelEvaluator(db)
		ur, err := ev.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		wev, err := NewWorldsEvaluatorFromURel(db, 1<<18)
		if err != nil {
			t.Fatal(err)
		}
		wdb, name, err := wev.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		wr := wdb.Worlds[0].Rels[name]
		up := urel.Poss(ur.Rel)
		if up.Len() != wr.Len() {
			t.Fatalf("trial %d: σ̂ sizes differ: %d vs %d", trial, up.Len(), wr.Len())
		}
		for _, tp := range up.Tuples() {
			if m := findMatch(wr, tp); m == nil {
				t.Fatalf("trial %d: σ̂ tuple %v missing in worlds result", trial, tp)
			}
		}
	}
}

// Two-argument σ̂ (a conditional-probability predicate, Example 6.1
// shape): conf[A]/conf[∅] ≤ c.
func TestApproxSelectConditional(t *testing.T) {
	db := coinDB()
	_, _, qT, _ := coinQueries()
	// σ̂_{conf[CoinType]/conf[∅] ≤ 0.5}(T): selects coin types whose
	// posterior is ≤ 1/2 — only "fair" (posterior 1/3).
	q := ApproxSelect{
		In:   qT,
		Args: []ConfArg{{Attrs: []string{"CoinType"}}, {Attrs: nil}},
		// P1/P2 ≤ 0.5 ⟺ P1 − 0.5·P2 ≤ 0 ⟺ −P1 + 0.5·P2 ≥ 0.
		Pred: predapprox.Linear([]float64{-1, 0.5}, 0),
	}
	ev := NewURelEvaluator(db)
	res, err := ev.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	out := urel.Poss(res.Rel)
	if out.Len() != 1 {
		t.Fatalf("σ̂ selected %d tuples, want 1:\n%s", out.Len(), out)
	}
	row := out.Tuples()[0]
	if out.Value(row, "CoinType").AsString() != "fair" {
		t.Errorf("selected %v, want fair", row)
	}
	p1 := out.Value(row, "P1").AsFloat()
	p2 := out.Value(row, "P2").AsFloat()
	if math.Abs(p1-1.0/6) > 1e-9 || math.Abs(p2-0.5) > 1e-9 {
		t.Errorf("P1=%v (want 1/6), P2=%v (want 1/2)", p1, p2)
	}
}
