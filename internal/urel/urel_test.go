package urel

import (
	"math"
	"testing"

	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/vars"
)

func completeRel(schema rel.Schema, rows ...rel.Tuple) *Relation {
	return FromComplete(rel.FromRows(schema, rows...))
}

func TestFromCompleteAndPoss(t *testing.T) {
	r := completeRel(rel.NewSchema("A", "B"),
		rel.Tuple{rel.Int(1), rel.String("x")},
		rel.Tuple{rel.Int(2), rel.String("y")},
	)
	if !r.IsComplete() {
		t.Error("lifted complete relation should be complete")
	}
	p := Poss(r)
	if p.Len() != 2 {
		t.Errorf("poss len = %d", p.Len())
	}
}

func TestSelectProject(t *testing.T) {
	r := completeRel(rel.NewSchema("A", "B"),
		rel.Tuple{rel.Int(1), rel.Int(10)},
		rel.Tuple{rel.Int(2), rel.Int(20)},
	)
	s := Select(r, expr.Gt(expr.A("A"), expr.CInt(1)))
	if s.Len() != 1 || !rel.Equal(s.Tuples()[0].Row[0], rel.Int(2)) {
		t.Errorf("select result wrong: %v", s.Tuples())
	}
	// Arithmetic projection: A+B -> C (the paper's ρ_{A+B→C} example).
	p := Project(r, []expr.Target{expr.As("C", expr.Add(expr.A("A"), expr.A("B")))})
	if p.Len() != 2 {
		t.Errorf("project len = %d", p.Len())
	}
	if !Poss(p).Contains(rel.Tuple{rel.Int(11)}) || !Poss(p).Contains(rel.Tuple{rel.Int(22)}) {
		t.Errorf("arithmetic projection wrong: %v", Poss(p))
	}
}

func TestProductConsistency(t *testing.T) {
	tab := vars.NewTable()
	x := tab.Add("x", []float64{0.5, 0.5}, nil)

	a := NewRelation(rel.NewSchema("A"))
	a.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(1)})
	b := NewRelation(rel.NewSchema("B"))
	b.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 1}), rel.Tuple{rel.Int(2)})
	b.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(3)})

	p, err := Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Only the consistent pair (x=0, x=0) survives.
	if p.Len() != 1 {
		t.Fatalf("product len = %d, want 1", p.Len())
	}
	if !p.Tuples()[0].Row.Equal(rel.Tuple{rel.Int(1), rel.Int(3)}) {
		t.Errorf("product tuple = %v", p.Tuples()[0].Row)
	}
	if _, err := Product(a, a); err == nil {
		t.Error("product with shared attribute names must fail")
	}
}

func TestJoinNatural(t *testing.T) {
	a := completeRel(rel.NewSchema("A", "B"),
		rel.Tuple{rel.Int(1), rel.String("x")},
		rel.Tuple{rel.Int(2), rel.String("y")},
	)
	b := completeRel(rel.NewSchema("B", "C"),
		rel.Tuple{rel.String("x"), rel.Float(0.5)},
	)
	j := Join(a, b)
	if j.Len() != 1 {
		t.Fatalf("join len = %d", j.Len())
	}
	want := rel.Tuple{rel.Int(1), rel.String("x"), rel.Float(0.5)}
	if !j.Tuples()[0].Row.Equal(want) {
		t.Errorf("join tuple = %v, want %v", j.Tuples()[0].Row, want)
	}
	if !j.Schema().Equal(rel.NewSchema("A", "B", "C")) {
		t.Errorf("join schema = %v", j.Schema())
	}
}

func TestUnionDiff(t *testing.T) {
	a := completeRel(rel.NewSchema("A"), rel.Tuple{rel.Int(1)}, rel.Tuple{rel.Int(2)})
	b := completeRel(rel.NewSchema("A"), rel.Tuple{rel.Int(2)}, rel.Tuple{rel.Int(3)})
	u, err := Union(a, b)
	if err != nil || u.Len() != 3 {
		t.Fatalf("union: %v len=%d", err, u.Len())
	}
	d, err := DiffComplete(a, b)
	if err != nil || d.Len() != 1 {
		t.Fatalf("diff: %v len=%d", err, d.Len())
	}
	if !Poss(d).Contains(rel.Tuple{rel.Int(1)}) {
		t.Error("diff content wrong")
	}
	tab := vars.NewTable()
	x := tab.Add("x", []float64{0.5, 0.5}, nil)
	c := NewRelation(rel.NewSchema("A"))
	c.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(1)})
	if _, err := DiffComplete(c, b); err == nil {
		t.Error("-c on uncertain relation must fail")
	}
}

func TestRepairKeyCoinExample(t *testing.T) {
	// Example 2.2: R := π_CoinType(repair-key_∅@Count(Coins)).
	tab := vars.NewTable()
	coins := completeRel(rel.NewSchema("CoinType", "Count"),
		rel.Tuple{rel.String("fair"), rel.Int(2)},
		rel.Tuple{rel.String("2headed"), rel.Int(1)},
	)
	rk, err := RepairKey(coins, nil, "Count", tab, "c")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("repair-key should create 1 variable, got %d", tab.Len())
	}
	v := vars.Var(0)
	if tab.DomSize(v) != 2 {
		t.Fatalf("variable should have 2 alternatives")
	}
	// Probabilities 2/3, 1/3 in insertion order (fair first).
	if math.Abs(tab.Prob(v, 0)-2.0/3) > 1e-12 || math.Abs(tab.Prob(v, 1)-1.0/3) > 1e-12 {
		t.Errorf("probs = %v, %v", tab.Prob(v, 0), tab.Prob(v, 1))
	}
	r := Project(rk, []expr.Target{expr.Keep("CoinType")})
	// Confidence of each tuple.
	conf, err := ConfExact(r, tab, "P")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range conf.Tuples() {
		ct := conf.Value(tp, "CoinType").AsString()
		p := conf.Value(tp, "P").AsFloat()
		want := 2.0 / 3
		if ct == "2headed" {
			want = 1.0 / 3
		}
		if math.Abs(p-want) > 1e-12 {
			t.Errorf("conf(%s) = %v, want %v", ct, p, want)
		}
	}
}

func TestRepairKeyGrouped(t *testing.T) {
	// repair-key with a nonempty key: one variable per key group.
	tab := vars.NewTable()
	faces := completeRel(rel.NewSchema("CoinType", "Face", "FProb"),
		rel.Tuple{rel.String("fair"), rel.String("H"), rel.Float(0.5)},
		rel.Tuple{rel.String("fair"), rel.String("T"), rel.Float(0.5)},
		rel.Tuple{rel.String("2headed"), rel.String("H"), rel.Float(1)},
	)
	rk, err := RepairKey(faces, []string{"CoinType"}, "FProb", tab, "f")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("want 2 variables (one per group), got %d", tab.Len())
	}
	if rk.Len() != 3 {
		t.Errorf("repair-key output should keep all 3 tuples, got %d", rk.Len())
	}
	// The fair group's variable has two alternatives at 0.5 each; the
	// 2headed group's variable is deterministic.
	fairVar, ok := lookupVar(tab, "f[fair]")
	if !ok {
		t.Fatal("missing variable f[fair]")
	}
	if tab.DomSize(fairVar) != 2 || math.Abs(tab.Prob(fairVar, 0)-0.5) > 1e-12 {
		t.Error("fair group distribution wrong")
	}
	hVar, ok := lookupVar(tab, "f[2headed]")
	if !ok {
		t.Fatal("missing variable f[2headed]")
	}
	if tab.DomSize(hVar) != 1 {
		t.Error("2headed group should be deterministic")
	}
}

func TestRepairKeyValidation(t *testing.T) {
	tab := vars.NewTable()
	bad := completeRel(rel.NewSchema("A", "W"),
		rel.Tuple{rel.String("a"), rel.Int(0)},
	)
	if _, err := RepairKey(bad, nil, "W", tab, "x"); err == nil {
		t.Error("zero weight must be rejected")
	}
	neg := completeRel(rel.NewSchema("A", "W"),
		rel.Tuple{rel.String("a"), rel.Int(-1)},
	)
	if _, err := RepairKey(neg, nil, "W", tab, "y"); err == nil {
		t.Error("negative weight must be rejected")
	}
	str := completeRel(rel.NewSchema("A", "W"),
		rel.Tuple{rel.String("a"), rel.String("w")},
	)
	if _, err := RepairKey(str, nil, "W", tab, "z"); err == nil {
		t.Error("non-numeric weight must be rejected")
	}
	// An infinite weight, or finite ones whose group total overflows,
	// would divide into NaN or zero probabilities.
	inf := completeRel(rel.NewSchema("A", "W"), rel.Tuple{rel.String("a"), rel.Float(math.Inf(1))})
	huge := completeRel(rel.NewSchema("A", "W"),
		rel.Tuple{rel.String("a"), rel.Float(math.MaxFloat64)},
		rel.Tuple{rel.String("b"), rel.Float(math.MaxFloat64)},
	)
	for name, r := range map[string]*Relation{"infinite": inf, "overflowing": huge} {
		if _, err := RepairKey(r, nil, "W", tab, "i"); err == nil {
			t.Errorf("%s weights must be rejected", name)
		}
	}
	r := completeRel(rel.NewSchema("A", "W"), rel.Tuple{rel.String("a"), rel.Int(1)})
	if _, err := RepairKey(r, []string{"missing"}, "W", tab, "k"); err == nil {
		t.Error("missing key attribute must be rejected")
	}
	if _, err := RepairKey(r, nil, "missing", tab, "k2"); err == nil {
		t.Error("missing weight attribute must be rejected")
	}
	// Conflicting weights for one (Var, Dom) pair.
	tabc := vars.NewTable()
	x := tabc.Add("x", []float64{0.5, 0.5}, nil)
	confl := NewRelation(rel.NewSchema("A", "W"))
	confl.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.String("a"), rel.Int(1)})
	confl.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 1}), rel.Tuple{rel.String("a"), rel.Int(2)})
	if _, err := RepairKey(confl, nil, "W", tabc, "c"); err == nil {
		t.Error("conflicting alternative weights must be rejected")
	}
}

func TestConfExact(t *testing.T) {
	tab := vars.NewTable()
	x := tab.Add("x", []float64{0.3, 0.7}, nil)
	y := tab.Add("y", []float64{0.4, 0.6}, nil)
	r := NewRelation(rel.NewSchema("A"))
	// Tuple 1 present when x=0 or y=0; tuple 2 always present.
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(1)})
	r.Add(vars.MustAssignment(vars.Binding{Var: y, Alt: 0}), rel.Tuple{rel.Int(1)})
	r.Add(nil, rel.Tuple{rel.Int(2)})

	conf, err := ConfExact(r, tab, "P")
	if err != nil {
		t.Fatal(err)
	}
	if conf.Len() != 2 {
		t.Fatalf("conf len = %d", conf.Len())
	}
	for _, tp := range conf.Tuples() {
		a := conf.Value(tp, "A").AsInt()
		p := conf.Value(tp, "P").AsFloat()
		want := 1.0
		if a == 1 {
			want = 1 - 0.7*0.6
		}
		if math.Abs(p-want) > 1e-12 {
			t.Errorf("conf(%d) = %v, want %v", a, p, want)
		}
	}
	if _, err := ConfExact(r, tab, "A"); err == nil {
		t.Error("conf column colliding with schema must fail")
	}
}

func TestCertExact(t *testing.T) {
	tab := vars.NewTable()
	x := tab.Add("x", []float64{0.3, 0.7}, nil)
	r := NewRelation(rel.NewSchema("A"))
	r.Add(nil, rel.Tuple{rel.Int(1)})
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(2)})
	// Tuple 3 covered by both alternatives: certain.
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(3)})
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 1}), rel.Tuple{rel.Int(3)})

	c := CertExact(r, tab)
	if c.Len() != 2 {
		t.Fatalf("cert len = %d, want 2", c.Len())
	}
	if !c.Contains(rel.Tuple{rel.Int(1)}) || !c.Contains(rel.Tuple{rel.Int(3)}) {
		t.Error("cert content wrong")
	}
}

func TestLineage(t *testing.T) {
	tab := vars.NewTable()
	x := tab.Add("x", []float64{0.5, 0.5}, nil)
	_ = tab
	r := NewRelation(rel.NewSchema("A"))
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 0}), rel.Tuple{rel.Int(1)})
	r.Add(vars.MustAssignment(vars.Binding{Var: x, Alt: 1}), rel.Tuple{rel.Int(1)})
	r.Add(nil, rel.Tuple{rel.Int(2)})
	lin := Lineage(r)
	if len(lin) != 2 {
		t.Fatalf("lineage groups = %d", len(lin))
	}
	if len(lin[0].F) != 2 || len(lin[1].F) != 1 {
		t.Errorf("lineage clause counts wrong: %d, %d", len(lin[0].F), len(lin[1].F))
	}
	if dnf.Confidence(lin[0].F, tab) != 1 {
		t.Error("tuple 1 should be certain")
	}
}

func TestDatabaseCloneIsolation(t *testing.T) {
	db := NewDatabase()
	db.AddComplete("R", rel.FromRows(rel.NewSchema("A", "W"),
		rel.Tuple{rel.Int(1), rel.Int(1)},
		rel.Tuple{rel.Int(2), rel.Int(1)},
	))
	cl := db.Clone()
	if _, err := RepairKey(cl.Rels["R"], nil, "W", cl.Vars, "rk"); err != nil {
		t.Fatal(err)
	}
	if db.Vars.Len() != 0 {
		t.Error("clone's repair-key mutated the original variable table")
	}
	if !db.Complete["R"] {
		t.Error("completeness flag lost")
	}
}

func TestDedupAddUTuple(t *testing.T) {
	tab := vars.NewTable()
	x := tab.Add("x", []float64{0.5, 0.5}, nil)
	r := NewRelation(rel.NewSchema("A"))
	d := vars.MustAssignment(vars.Binding{Var: x, Alt: 0})
	if !r.Add(d, rel.Tuple{rel.Int(1)}) {
		t.Error("first add should succeed")
	}
	if r.Add(d, rel.Tuple{rel.Int(1)}) {
		t.Error("duplicate (D, tuple) should collapse")
	}
	if !r.Add(nil, rel.Tuple{rel.Int(1)}) {
		t.Error("same tuple under different D is a distinct U-tuple")
	}
}

// lookupVar finds the variable whose rendered name is name.
func lookupVar(tab *vars.Table, name string) (vars.Var, bool) {
	for v := vars.Var(0); int(v) < tab.Len(); v++ {
		if tab.Name(v) == name {
			return v, true
		}
	}
	return 0, false
}
