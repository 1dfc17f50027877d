package algebra

import (
	"math"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/worlds"
)

// coinDB builds the complete database of Example 2.2.
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
		rel.Tuple{rel.Int(1)},
		rel.Tuple{rel.Int(2)},
	))
	return db
}

// coinQueries returns the queries R, S, T, U of Example 2.2, with R, S, T
// bound once via Let exactly as the paper's R := …, S := …, T := … style.
func coinQueries() (r, s, t, u Query) {
	// R := π_CoinType(repair-key_∅@Count(Coins))
	rDef := Project{
		In:      RepairKey{In: Base{Name: "Coins"}, Weight: "Count"},
		Targets: []expr.Target{expr.Keep("CoinType")},
	}
	// S := π_{CoinType,Toss,Face}(repair-key_{CoinType,Toss}@FProb(Faces × Tosses))
	sDef := Project{
		In: RepairKey{
			In:     Product{L: Base{Name: "Faces"}, R: Base{Name: "Tosses"}},
			Key:    []string{"CoinType", "Toss"},
			Weight: "FProb",
		},
		Targets: []expr.Target{expr.Keep("CoinType"), expr.Keep("Toss"), expr.Keep("Face")},
	}
	// T := R ⋈ π_CoinType(σ_{Toss=1∧Face=H}(S)) ⋈ π_CoinType(σ_{Toss=2∧Face=H}(S))
	headsAt := func(toss int64) Query {
		return Project{
			In: Select{
				In: Base{Name: "S"},
				Pred: expr.AndOf(
					expr.Eq(expr.A("Toss"), expr.CInt(toss)),
					expr.Eq(expr.A("Face"), expr.CStr("H")),
				),
			},
			Targets: []expr.Target{expr.Keep("CoinType")},
		}
	}
	tDef := Join{L: Join{L: Base{Name: "R"}, R: headsAt(1)}, R: headsAt(2)}
	// U := π_{CoinType, P1/P2→P}(ρ_{P→P1}(conf(T)) × ρ_{P→P2}(conf(π_∅(T))))
	uDef := Project{
		In: Product{
			L: Conf{In: Base{Name: "T"}, As: "P1"},
			R: Conf{In: Project{In: Base{Name: "T"}, Targets: nil}, As: "P2"},
		},
		Targets: []expr.Target{
			expr.Keep("CoinType"),
			expr.As("P", expr.Div(expr.A("P1"), expr.A("P2"))),
		},
	}
	withBindings := func(body Query) Query {
		return Let{Name: "R", Def: rDef, In: Let{Name: "S", Def: sDef, In: Let{Name: "T", Def: tDef, In: body}}}
	}
	r = rDef
	s = Let{Name: "R", Def: rDef, In: sDef}
	t = withBindings(Base{Name: "T"})
	u = withBindings(uDef)
	return r, s, t, u
}

// TestExample22Golden reproduces the full coin-tossing example: the prior
// 2/3 and the posterior table U with P(fair|HH) = 1/3, P(2headed|HH) = 2/3.
func TestExample22Golden(t *testing.T) {
	db := coinDB()
	qR, _, qT, qU := coinQueries()

	ev := NewURelEvaluator(db)
	// Prior: conf(R).
	prior, err := ev.Eval(Conf{In: qR})
	if err != nil {
		t.Fatal(err)
	}
	checkP := func(r *urel.Relation, keyAttr, key string, pcol string, want float64) {
		t.Helper()
		for _, ut := range r.Tuples() {
			if r.Schema().Index(keyAttr) >= 0 && ut.Row[r.Schema().Index(keyAttr)].AsString() == key {
				got := ut.Row[r.Schema().Index(pcol)].AsFloat()
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("%s=%s: P=%v, want %v", keyAttr, key, got, want)
				}
				return
			}
		}
		t.Errorf("missing tuple %s=%s", keyAttr, key)
	}
	checkP(prior.Rel, "CoinType", "fair", "P", 2.0/3)
	checkP(prior.Rel, "CoinType", "2headed", "P", 1.0/3)

	// conf(T): joint probabilities 1/6 and 1/3 (Figure 1(b)).
	confT, err := ev.Eval(Conf{In: qT})
	if err != nil {
		t.Fatal(err)
	}
	checkP(confT.Rel, "CoinType", "fair", "P", 1.0/6)
	checkP(confT.Rel, "CoinType", "2headed", "P", 1.0/3)

	// U: the posterior.
	u, err := ev.Eval(qU)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Complete {
		t.Error("U should be complete")
	}
	checkP(u.Rel, "CoinType", "fair", "P", 1.0/3)
	checkP(u.Rel, "CoinType", "2headed", "P", 2.0/3)
}

// The same example must produce identical results under the
// possible-worlds reference semantics, including the eight-world count.
func TestExample22WorldsAgree(t *testing.T) {
	db := coinDB()
	_, qS, qT, qU := coinQueries()

	wev, err := NewWorldsEvaluatorFromURel(db, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	// After S the database has 2 (coin) × 2 × 2 (tosses) = 8 relevant
	// worlds.
	wdb, name, err := wev.Eval(qS)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wdb.Normalize().Worlds); n != 8 {
		t.Errorf("worlds after S = %d, want 8", n)
	}
	_ = name

	wev2, err := NewWorldsEvaluatorFromURel(db, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	confT, err := wev2.EvalConf(qT, "P")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range confT.Tuples() {
		ct := confT.Value(tp, "CoinType").AsString()
		p := confT.Value(tp, "P").AsFloat()
		want := 1.0 / 6
		if ct == "2headed" {
			want = 1.0 / 3
		}
		if math.Abs(p-want) > 1e-9 {
			t.Errorf("worlds conf(T)[%s] = %v, want %v", ct, p, want)
		}
	}

	// The final posterior through the worlds engine.
	wev3, err := NewWorldsEvaluatorFromURel(db, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	udb, uname, err := wev3.Eval(qU)
	if err != nil {
		t.Fatal(err)
	}
	uRel := udb.Worlds[0].Rels[uname]
	for _, tp := range uRel.Tuples() {
		ct := uRel.Value(tp, "CoinType").AsString()
		p := uRel.Value(tp, "P").AsFloat()
		want := 1.0 / 3
		if ct == "2headed" {
			want = 2.0 / 3
		}
		if math.Abs(p-want) > 1e-9 {
			t.Errorf("worlds U[%s] = %v, want %v", ct, p, want)
		}
	}
}

func TestPossAndCert(t *testing.T) {
	db := coinDB()
	qR, _, _, _ := coinQueries()
	ev := NewURelEvaluator(db)
	poss, err := ev.Eval(Poss{In: qR})
	if err != nil {
		t.Fatal(err)
	}
	if poss.Rel.Len() != 2 || !poss.Complete {
		t.Errorf("poss(R): len=%d complete=%v", poss.Rel.Len(), poss.Complete)
	}
	cert, err := ev.Eval(Cert{In: qR})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Rel.Len() != 0 {
		t.Errorf("cert(R) should be empty, got %d", cert.Rel.Len())
	}
	// Certain tuples of a complete base relation: everything.
	certBase, err := ev.Eval(Cert{In: Base{Name: "Coins"}})
	if err != nil {
		t.Fatal(err)
	}
	if certBase.Rel.Len() != 2 {
		t.Errorf("cert(Coins) = %d tuples, want 2", certBase.Rel.Len())
	}
}

func TestUnionDiffEval(t *testing.T) {
	db := urel.NewDatabase()
	db.AddComplete("A", rel.FromRows(rel.NewSchema("X"), rel.Tuple{rel.Int(1)}, rel.Tuple{rel.Int(2)}))
	db.AddComplete("B", rel.FromRows(rel.NewSchema("X"), rel.Tuple{rel.Int(2)}))
	ev := NewURelEvaluator(db)
	u, err := ev.Eval(Union{L: Base{Name: "A"}, R: Base{Name: "B"}})
	if err != nil || u.Rel.Len() != 2 {
		t.Errorf("union: %v, len=%d", err, u.Rel.Len())
	}
	d, err := ev.Eval(DiffC{L: Base{Name: "A"}, R: Base{Name: "B"}})
	if err != nil || d.Rel.Len() != 1 {
		t.Errorf("diff: %v", err)
	}
	// −c on an uncertain input must fail.
	rk := RepairKey{In: Base{Name: "A"}, Weight: "X"}
	if _, err := ev.Eval(DiffC{L: rk, R: Base{Name: "B"}}); err == nil {
		t.Error("−c over uncertain relation must fail")
	}
}

func TestValidateRules(t *testing.T) {
	db := urel.NewDatabase()
	db.AddComplete("A", rel.FromRows(rel.NewSchema("X"), rel.Tuple{rel.Int(1)}))
	phi := predapprox.Linear([]float64{1}, 0.5)
	asel := ApproxSelect{In: Base{Name: "A"}, Args: []ConfArg{{Attrs: []string{"X"}}}, Pred: phi}
	bad := RepairKey{In: asel, Weight: "P1"}
	if _, err := InferSchema(bad, db); err == nil {
		t.Error("repair-key above σ̂ must be rejected")
	}
	noArgs := ApproxSelect{In: Base{Name: "A"}, Pred: phi}
	if _, err := InferSchema(noArgs, db); err == nil {
		t.Error("σ̂ without conf args must be rejected")
	}
	arity := ApproxSelect{In: Base{Name: "A"}, Args: []ConfArg{{Attrs: []string{"X"}}},
		Pred: predapprox.Linear([]float64{1, -1}, 0)}
	if _, err := InferSchema(arity, db); err == nil {
		t.Error("σ̂ arity mismatch must be rejected")
	}
}

func TestUnknownRelation(t *testing.T) {
	ev := NewURelEvaluator(urel.NewDatabase())
	if _, err := ev.Eval(Base{Name: "nope"}); err == nil {
		t.Error("unknown relation must error")
	}
	wev := NewWorldsEvaluator(mustExpand(t, coinDB()))
	if _, _, err := wev.Eval(Base{Name: "nope"}); err == nil {
		t.Error("unknown relation must error (worlds)")
	}
}

func mustExpand(t *testing.T, db *urel.Database) *worlds.Database {
	t.Helper()
	w, err := NewWorldsEvaluatorFromURel(db, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return w.db
}

// TestRepairKeyLeavesBaseTableUntouched: an evaluation shares the base
// table's variable descriptors instead of copying them, and its
// repair-keys register beside them without writing one.
func TestRepairKeyLeavesBaseTableUntouched(t *testing.T) {
	db := coinDB()
	x := db.Vars.Add("x", []float64{0.3, 0.7}, []string{"in", "out"})
	db.Vars.Add("y", []float64{0.6, 0.4}, nil)
	before := db.Vars.Since(0)
	probs := [][]float64{slices.Clone(before[0].Probs), slices.Clone(before[1].Probs)}
	_, _, qT, _ := coinQueries()
	ev := NewURelEvaluator(db)
	if _, err := ev.Eval(qT); err != nil {
		t.Fatal(err)
	}
	if ev.DB().Vars.Len() <= 2 {
		t.Fatal("the evaluation registered no repair-key variable")
	}
	if &ev.DB().Vars.Info(x).Probs[0] != &db.Vars.Info(x).Probs[0] {
		t.Error("the evaluation copied the base table's probabilities")
	}
	if db.Vars.Len() != 2 {
		t.Fatalf("base table grew to %d variables", db.Vars.Len())
	}
	for v, in := range db.Vars.Since(0) {
		if in.ID != before[v].ID || !slices.Equal(in.Probs, probs[v]) {
			t.Errorf("variable %d changed: %x %v, want %x %v", v, in.ID, in.Probs, before[v].ID, probs[v])
		}
	}
	if db.Vars.Name(x) != "x" || db.Vars.AltName(x, 1) != "out" {
		t.Errorf("variable x renders as %s=%s", db.Vars.Name(x), db.Vars.AltName(x, 1))
	}
}
