package algebra

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
	"repro/internal/vars"
)

// randDB builds a small random U-relational database with two uncertain
// relations R(A,B), S(B,C) and a complete weighted relation K(G,A,W), no
// two of whose tuples agree on (G, A). K's repair-key column G mixes
// types and awkward strings: Int(1) and Float(1) are one group; "1", NULL
// and "NULL" are three more, which render alike to 1 or NULL; the rest
// hold the characters a rendered name escapes or a key string separates
// on.
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
	k := rel.NewRelation(rel.NewSchema("G", "A", "W"))
	for i := 0; i < 2+rng.Intn(3); i++ {
		t := rel.Tuple{awkwardKeys[rng.Intn(len(awkwardKeys))], rel.Int(int64(rng.Intn(2))), rel.Float(0.2 + rng.Float64())}
		if !slices.ContainsFunc(k.Tuples(), func(o rel.Tuple) bool { return o.EqualAt([]int{0, 1}, t, []int{0, 1}) }) {
			k.Add(t)
		}
	}
	db.AddURelation("R", r, false)
	db.AddURelation("S", s, false)
	db.AddComplete("K", k)
	return db
}

var awkwardKeys = []rel.Value{
	rel.Int(1), rel.Float(1), rel.String("1"), rel.Null(), rel.String("NULL"),
	rel.String("x,y"), rel.String("[x]"), rel.String("x]"), rel.String(`x\`), rel.String("x|y"),
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
			var key []string
			if rng.Intn(2) == 0 {
				key = []string{"G"}
			}
			return Project{
				In:      RepairKey{In: Base{Name: "K"}, Key: key, Weight: "W"},
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

// subplans returns q and every query below it, parents first.
func subplans(q Query) []Query {
	out := []Query{q}
	for _, c := range q.Children() {
		out = append(out, subplans(c)...)
	}
	return out
}

// TestDKeyRelationsHaveDistinctDs: every relation a random plan's node
// marks D-key holds no two pairs with one D — the fact that lets Project
// append its output without a dedup index.
func TestDKeyRelationsHaveDistinctDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3838))
	dkeys, pairs := 0, 0
	for trial := 0; trial < 150; trial++ {
		db := randDB(rng)
		var key []string
		if rng.Intn(2) == 0 {
			key = []string{"A"}
		}
		rk := Select{
			In: Project{In: RepairKey{In: Base{Name: "K"}, Key: key, Weight: "W"},
				Targets: []expr.Target{expr.Keep("A"), expr.As("V", expr.Add(expr.A("W"), expr.CInt(1)))}},
			Pred: expr.Le(expr.A("A"), expr.CInt(int64(rng.Intn(2)))),
		}
		for _, q := range append(subplans(randQuery(rng, 1+rng.Intn(3))), subplans(Join{L: rk, R: Base{Name: "R"}})...) {
			res, err := NewURelEvaluator(db).Eval(q)
			if err != nil || !res.Rel.DKey() {
				continue
			}
			dkeys++
			seen := map[string]bool{}
			for _, ut := range res.Rel.Tuples() {
				if k := ut.D.Key(); seen[k] {
					t.Fatalf("trial %d: D-key relation of %s holds D %v twice", trial, q, ut.D)
				} else {
					seen[k] = true
				}
				pairs++
			}
		}
	}
	if dkeys < 50 || pairs < 100 {
		t.Fatalf("too few D-key relations checked: %d relations, %d pairs", dkeys, pairs)
	}
}

// relPairs renders a relation's pairs in order, D column and row.
func relPairs(r *urel.Relation) string {
	var b strings.Builder
	for _, ut := range r.Tuples() {
		b.WriteString(ut.D.Key() + "|" + ut.Row.Key() + "\n")
	}
	return b.String()
}

// TestFusedProjectJoinMatchesTwoOperators: π over ⋈ in one pass equals
// Join then Project pair for pair — tuples, order, footprint, the pairs'
// identity (a union of the two must merge every pair) and the join and
// project statistics — at workers 1 and 4, over random plans joined with
// uncertain and complete relations, over a 9 000-tuple probe side, and in
// the semijoin case (targets read only the left input, the
// right one is complete), where a small budget must still trip mid-chain.
func TestFusedProjectJoinMatchesTwoOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(3939))
	check := func(name string, l, r *urel.Relation, targets []expr.Target) {
		t.Helper()
		for _, workers := range []int{1, 4} {
			fc, uc := urel.NewCounters(), urel.NewCounters()
			got := urel.NewExec(sched.New(workers), fc).ProjectJoin(l, r, targets)
			ux := urel.NewExec(sched.New(workers), uc)
			want := ux.Project(ux.Join(l, r), targets)
			if relPairs(got) != relPairs(want) || got.Bytes() != want.Bytes() || len(got.Schema()) != len(targets) {
				t.Fatalf("%s, workers %d: fused π∘⋈ differs from Join then Project\n got %s\nwant %s", name, workers, relPairs(got), relPairs(want))
			}
			for _, u := range [][2]*urel.Relation{{got, want}, {want, got}} {
				if m, err := urel.Union(u[0], u[1]); err != nil || m.Len() != want.Len() {
					t.Fatalf("%s, workers %d: fused output's stored hashes differ (union holds %d pairs, want %d)", name, workers, m.Len(), want.Len())
				}
			}
			g, w := fc.Snapshot(), uc.Snapshot()
			if !l.IsComplete() && !r.IsComplete() {
				// Two uncertain inputs: the join cell counts emitted pairs,
				// which may merge; the projection's output is the same.
				g["join"], w["join"] = urel.OpStats{}, urel.OpStats{}
				gp, wp := g["project"], w["project"]
				gp.TuplesIn, wp.TuplesIn = 0, 0
				g["project"], w["project"] = gp, wp
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s, workers %d: statistics %v, want %v", name, workers, g, w)
			}
		}
	}
	oneComplete, empty, semijoins := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		db := randDB(rng)
		db.AddComplete("C", randComplete(rng))
		res, err := NewURelEvaluator(db).Eval(randQuery(rng, rng.Intn(3)))
		if err != nil {
			continue
		}
		l := res.Rel
		r := db.Rels[[]string{"S", "R", "C", "K"}[rng.Intn(4)]]
		joined := urel.Join(l, r).Schema()
		var targets []expr.Target // one case in five projects onto no columns
		for _, a := range joined {
			if rng.Intn(2) == 0 {
				targets = append(targets, expr.Keep(a))
			}
		}
		if len(targets) == 0 || rng.Intn(4) == 0 {
			targets = append(targets, expr.As("X", expr.Add(expr.A(joined[0]), expr.CInt(1))))
		}
		if rng.Intn(5) == 0 {
			targets, empty = nil, empty+1
		}
		if l.IsComplete() || r.IsComplete() {
			oneComplete++
		}
		if semijoin(l, r, targets) {
			semijoins++
		}
		check("trial "+strconv.Itoa(trial), l, r, targets)
	}
	if oneComplete < 50 || empty < 20 {
		t.Fatalf("only %d fused cases had a complete input, %d an empty projection", oneComplete, empty)
	}
	if semijoins < 30 {
		t.Fatalf("only %d fused cases ran as a semijoin", semijoins)
	}
	// A 9 000-tuple probe side.
	big := urel.NewRelation(rel.NewSchema("A", "B"))
	for i := 0; i < 9000; i++ {
		d := vars.Assignment{{Var: vars.Var(rng.Intn(40)), Alt: int32(rng.Intn(2))}}
		big.Add(d, rel.Tuple{rel.Int(int64(rng.Intn(300))), rel.Int(int64(rng.Intn(4)))})
	}
	c := urel.FromComplete(randComplete(rng))
	check("several ranges", big, c, []expr.Target{expr.Keep("B"), expr.Keep("C")})
	check("several ranges, no columns", big, c, nil)
	check("several ranges, two uncertain inputs", big, big, nil)

	// Several ranges in the exact-join shape: 9 000 distinct uncertain
	// pairs, each matching 4 to 6 complete tuples, projected onto left
	// columns only.
	left := urel.NewRelation(rel.NewSchema("A", "B"))
	for i := 0; i < 9000; i++ {
		left.Add(vars.Assignment{{Var: vars.Var(i % 40), Alt: int32(i / 40 % 2)}}, rel.Tuple{rel.Int(int64(i % 300)), rel.Int(int64(i / 300))})
	}
	fan := rel.NewRelation(rel.NewSchema("A", "C"))
	for a := 0; a < 300; a++ {
		for k := 0; k < 4+a%3; k++ {
			fan.Add(rel.Tuple{rel.Int(int64(a)), rel.Int(int64(k))})
		}
	}
	fc := urel.FromComplete(fan)
	for _, targets := range [][]expr.Target{{expr.Keep("B")}, {expr.Keep("A"), expr.As("X", expr.Add(expr.A("B"), expr.CInt(1)))}, nil} {
		if !semijoin(left, fc, targets) {
			t.Fatalf("fan-out case %v is not a semijoin", targets)
		}
		check("several ranges, fan-out", left, fc, targets)
	}

	// A fan-out above a small budget trips inside the chain of one probe
	// tuple, at the 1 024th match, in the semijoin as in the join that
	// builds every pair.
	one := urel.NewRelation(rel.NewSchema("A", "B"))
	one.Add(vars.Assignment{{Var: 0, Alt: 1}}, rel.Tuple{rel.Int(0), rel.Int(0)})
	wideFan := rel.NewRelation(rel.NewSchema("A", "C"))
	for k := 0; k < 5000; k++ {
		wideFan.Add(rel.Tuple{rel.Int(0), rel.Int(int64(k))})
	}
	wf := urel.FromComplete(wideFan)
	var cells []urel.OpStats
	for _, targets := range [][]expr.Target{{expr.Keep("B")}, {expr.Keep("C")}} {
		ctrs, budget := urel.NewCounters(), urel.NewMemBudget(20_000)
		urel.NewExec(sched.New(1), ctrs).WithBudget(budget).ProjectJoin(one, wf, targets)
		ops := ctrs.Snapshot()
		if !budget.Exceeded() || ops["join"].TuplesOut != 1024 || ops["project"].Calls != 0 {
			t.Fatalf("targets %v (semijoin %v): budget exceeded %v, join %+v, project %+v; want a trip at match 1 024",
				targets, semijoin(one, wf, targets), budget.Exceeded(), ops["join"], ops["project"])
		}
		cells = append(cells, ops["join"])
	}
	if cells[0] != cells[1] {
		t.Fatalf("tripped semijoin records %+v, the join %+v", cells[0], cells[1])
	}
}

// semijoin reports whether π_targets(l ⋈ r) takes ProjectJoin's semijoin
// path: every target reads only l's columns and r is complete.
func semijoin(l, r *urel.Relation, targets []expr.Target) bool {
	for _, tg := range targets {
		for _, a := range tg.Expr.Attrs(nil) {
			if !l.Schema().Has(a) {
				return false
			}
		}
	}
	return r.IsComplete()
}

// TestBooleanConfOverJoin: conf(project[](L ⋈ R)) — the parser's empty
// projection, whose targets are nil — is one Boolean probability over no
// columns. It agrees with the possible-worlds reference and, bit for bit
// and in its statistics, with the same plan whose join is let-bound, which
// never fuses π into ⋈.
func TestBooleanConfOverJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(4141))
	rk := Project{In: RepairKey{In: Base{Name: "K"}, Key: nil, Weight: "W"}, Targets: []expr.Target{expr.Keep("A")}}
	pairs := [][2]Query{
		{Base{Name: "R"}, Base{Name: "C"}},
		{Base{Name: "C"}, Base{Name: "R"}},
		{Base{Name: "R"}, Base{Name: "S"}},
		{Join{L: Base{Name: "R"}, R: Base{Name: "S"}}, Base{Name: "C"}},
		{rk, Base{Name: "C"}},
		{rk, Base{Name: "R"}},
		{Base{Name: "K"}, Base{Name: "C"}},
	}
	nonEmpty := 0
	for trial := 0; trial < 40; trial++ {
		db := randDB(rng)
		db.AddComplete("C", randComplete(rng))
		for _, lr := range pairs {
			q := Project{In: Join{L: lr[0], R: lr[1]}}
			uconf, wconf, skip := evalBothWays(t, db, q)
			if skip { // a random K whose repair-key conflicts
				continue
			}
			if len(uconf.Schema()) != 1 || uconf.Len() > 1 || uconf.Len() != wconf.Len() {
				t.Fatalf("trial %d: %s gives %v, worlds %v", trial, q, uconf, wconf)
			}
			if uconf.Len() == 0 {
				continue
			}
			nonEmpty++
			if pu, pw := uconf.Tuples()[0][0].AsFloat(), wconf.Tuples()[0][0].AsFloat(); math.Abs(pu-pw) > 1e-9 {
				t.Fatalf("trial %d: %s: urel P %v, worlds %v", trial, q, pu, pw)
			}
			fused, err := NewURelEvaluator(db).Eval(Conf{In: q, As: "P"})
			if err != nil {
				t.Fatal(err)
			}
			bound, err := NewURelEvaluator(db).Eval(Let{Name: "J", Def: q.In, In: Conf{In: Project{In: Base{Name: "J"}}, As: "P"}})
			if err != nil {
				t.Fatal(err)
			}
			if relPairs(fused.Rel) != relPairs(bound.Rel) || !reflect.DeepEqual(fused.Ops, bound.Ops) {
				t.Fatalf("trial %d: %s: fused %s %v, let-bound %s %v", trial, q, relPairs(fused.Rel), fused.Ops, relPairs(bound.Rel), bound.Ops)
			}
		}
	}
	if nonEmpty < 100 {
		t.Fatalf("only %d Boolean queries held a possible tuple", nonEmpty)
	}
}

// randComplete builds a complete relation C(A, C) whose A values meet the
// random relations' and the big relation's.
func randComplete(rng *rand.Rand) *rel.Relation {
	c := rel.NewRelation(rel.NewSchema("A", "C"))
	for i := 0; i < 2+rng.Intn(6); i++ {
		c.Add(rel.Tuple{rel.Int(int64(rng.Intn(3))), rel.Int(int64(rng.Intn(3)))})
	}
	return c
}
