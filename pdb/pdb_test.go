package pdb

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// coinDB builds the Example 2.2 database (two fair coins, one double-headed
// coin, two tosses) on the public builder.
func coinDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewBuilder().
		Table("Coins", []string{"CoinType", "Count"},
			[]any{"fair", 2},
			[]any{"2headed", 1}).
		Table("Faces", []string{"CoinType", "Face", "Side", "FProb"},
			[]any{"fair", "H", 1, 0.25},
			[]any{"fair", "H", 2, 0.25},
			[]any{"fair", "T", 1, 0.5},
			[]any{"2headed", "H", 1, 1.0}).
		Table("Tosses", []string{"Toss"}, []any{1}, []any{2}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// posteriorProgram is Example 2.2: P(CoinType | two observed heads). The
// fair coin's head is two sides of 1/4 each, which S projects onto one
// face: a fair toss shows heads under two alternatives of its variable, so
// the two-heads lineage is not mutually exclusive and approximate
// evaluation samples it (dnf.Exclusive).
const posteriorProgram = `
R := project[CoinType](repairkey[@Count](Coins));
S := project[CoinType, Toss, Face](repairkey[CoinType, Toss @ FProb](product(Faces, Tosses)));
T := join(join(R, project[CoinType](select[Toss = 1 and Face = 'H'](S))),
          project[CoinType](select[Toss = 2 and Face = 'H'](S)));
project[CoinType, P1/P2 as P](product(conf as P1 (T), conf as P2 (project[](T))));
`

func fingerprint(res *Result) string {
	var sb strings.Builder
	for row := range res.Rows() {
		sb.WriteString(row.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestPosteriorExactAndApprox(t *testing.T) {
	db := coinDB(t)
	q, err := db.Prepare(posteriorProgram)
	if err != nil {
		t.Fatal(err)
	}

	exact, err := q.EvalExact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Complete() {
		t.Error("posterior result should be complete")
	}
	var pFair float64
	found := false
	for row := range exact.Rows() {
		if row.Str("CoinType") == "fair" {
			pFair, found = row.Float("P"), true
		}
	}
	if !found {
		t.Fatal("no fair row in exact result")
	}
	if math.Abs(pFair-1.0/3) > 1e-12 {
		t.Errorf("exact P(fair | HH) = %v, want 1/3", pFair)
	}

	approx, err := q.Eval(context.Background(), WithConfBudget(0.01, 0.01), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for row := range approx.Rows() {
		if row.Str("CoinType") == "fair" {
			if math.Abs(row.Float("P")-1.0/3) > 0.05 {
				t.Errorf("approx P(fair | HH) = %v, too far from 1/3", row.Float("P"))
			}
		}
	}
	if approx.Stats().SampledTrials == 0 {
		t.Error("approximate evaluation should have sampled trials")
	}
}

func TestEvalDeterministicAcrossWorkersAndRuns(t *testing.T) {
	db := coinDB(t)
	q, err := db.Prepare(posteriorProgram)
	if err != nil {
		t.Fatal(err)
	}
	var prints []string
	for _, workers := range []int{1, 4, 8} {
		res, err := q.Eval(context.Background(), WithSeed(7), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, fingerprint(res))
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Errorf("workers variant %d differs from reference:\n%s\nvs\n%s", i, prints[i], prints[0])
		}
	}
	// Same query object, evaluated again: bit-identical.
	again, err := q.Eval(context.Background(), WithSeed(7), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(again) != prints[0] {
		t.Error("repeated Eval on one Query is not deterministic")
	}
}

// TestBooleanConfOverJoin: project[] over an inline join is Example 2.2's
// Boolean query, one row holding one probability, whether one input is
// complete (π and ⋈ then run as one operator) or both are uncertain.
func TestBooleanConfOverJoin(t *testing.T) {
	db := coinDB(t)
	const defs = `R := project[CoinType](repairkey[@Count](Coins));
S := project[CoinType, Toss, Face](repairkey[CoinType, Toss @ FProb](product(Faces, Tosses)));
`
	for _, c := range []struct {
		query string
		p     float64
	}{
		// P(some toss of the fair coin shows heads) = 1 − 1/4.
		{`conf(project[](join(Tosses, select[CoinType = 'fair' and Face = 'H'](S))))`, 0.75},
		{`conf(project[](join(select[CoinType = 'fair' and Face = 'H'](S), Tosses)))`, 0.75},
		// P(both tosses show heads) = 2/3 · 1/4 + 1/3.
		{`conf(project[](join(join(R, project[CoinType](select[Toss = 1 and Face = 'H'](S))),
		                      project[CoinType](select[Toss = 2 and Face = 'H'](S)))))`, 0.5},
	} {
		q, err := db.Prepare(defs + c.query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.EvalExact(context.Background(), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		var ps []float64
		for row := range res.Rows() {
			ps = append(ps, row.Value("P").(float64))
		}
		if cols := res.Columns(); len(cols) != 1 || len(ps) != 1 || math.Abs(ps[0]-c.p) > 1e-12 {
			t.Errorf("%s: columns %v, P %v, want one row P = %v", c.query, cols, ps, c.p)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	db := coinDB(t)
	q, err := db.Prepare(`conf(repairkey[@Count](Coins))`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Option
	}{
		{"WithEpsilon zero", WithEpsilon(0)},
		{"WithEpsilon negative", WithEpsilon(-0.1)},
		{"WithEpsilon one", WithEpsilon(1)},
		{"WithDelta zero", WithDelta(0)},
		{"WithDelta one", WithDelta(1)},
		{"WithDelta above one", WithDelta(1.5)},
		{"WithConfBudget bad eps", WithConfBudget(0, 0.1)},
		{"WithConfBudget bad delta", WithConfBudget(0.1, -1)},
		{"WithMaxRounds negative", WithMaxRounds(-1)},
		{"WithWorkers negative", WithWorkers(-2)},
		{"WithProgress nil", WithProgress(nil)},
	}
	for _, c := range cases {
		_, err := q.Eval(context.Background(), c.opt)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: error %v is not a *OptionError", c.name, err)
			continue
		}
		if oe.Option == "" || oe.Reason == "" {
			t.Errorf("%s: OptionError missing fields: %+v", c.name, oe)
		}
	}
	// Valid options still work after the rejects.
	if _, err := q.Eval(context.Background(), WithEpsilon(0.1), WithDelta(0.1), WithWorkers(2)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// The hook sees each σ̂ round, l doubling from one to the next, and then
// the end of the evaluation, flagged Done; without a projection above the
// σ̂ nothing is walked again.
func TestProgressHook(t *testing.T) {
	db := coinDB(t)
	q, err := db.Prepare(`aselect[p1 >= 0.25 over conf[CoinType]](project[CoinType](repairkey[@Count](Coins)))`)
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	_, err = q.Eval(context.Background(),
		WithDelta(0.01), WithEpsilon(0.01),
		WithProgress(func(ev ProgressEvent) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("progress hook never called")
	}
	last := events[len(events)-1]
	if !last.Done {
		t.Error("last progress event should be flagged Done")
	}
	for i, ev := range events {
		if ev.Restart != 0 {
			t.Errorf("event %d has Restart %d", i, ev.Restart)
		}
		if ev.Rounds <= 0 || ev.MaxRounds < ev.Rounds {
			t.Errorf("event %d has bad budget: rounds=%d max=%d", i, ev.Rounds, ev.MaxRounds)
		}
		if ev.Done != (i == len(events)-1) {
			t.Errorf("event %d has Done %v", i, ev.Done)
		}
	}
	rounds := events[:len(events)-1]
	if len(rounds) == 0 || last.Rounds != rounds[len(rounds)-1].Rounds {
		t.Fatalf("want σ̂ rounds ending at the final l, got %+v", events)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Rounds != 2*rounds[i-1].Rounds {
			t.Errorf("round budgets should double: %d then %d", rounds[i-1].Rounds, rounds[i].Rounds)
		}
	}
}

func TestOpenCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coins.csv")
	if err := os.WriteFile(path, []byte("CoinType,Count\nfair,2\n2headed,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(map[string]string{"Coins": path})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Relations(); len(got) != 1 || got[0] != "Coins" {
		t.Fatalf("Relations() = %v", got)
	}
	if db.NumTuples("Coins") != 2 {
		t.Errorf("NumTuples(Coins) = %d, want 2", db.NumTuples("Coins"))
	}
	q, err := db.Prepare(`conf(project[CoinType](repairkey[@Count](Coins)))`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Eval(context.Background(), WithConfBudget(0.05, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	for row := range res.Rows() {
		p := row.Float("P")
		want := 2.0 / 3
		if row.Str("CoinType") == "2headed" {
			want = 1.0 / 3
		}
		if math.Abs(p-want) > 0.1 {
			t.Errorf("conf(%s) = %v, want ≈ %v", row.Str("CoinType"), p, want)
		}
	}

	if _, err := Open(map[string]string{"Nope": filepath.Join(dir, "missing.csv")}); err == nil {
		t.Error("Open should fail on a missing file")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Table("R", []string{"A"}, []any{1, 2}).Build(); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := NewBuilder().Table("R", []string{"A"}, []any{struct{}{}}).Build(); err == nil {
		t.Error("unsupported value type should fail")
	}
	if _, err := NewBuilder().Independent("R", []string{"A"}, [][]any{{1}}, []float64{1.5}).Build(); err == nil {
		t.Error("probability outside (0,1] should fail")
	}
	if _, err := NewBuilder().Independent("R", []string{"A"}, [][]any{{1}, {2}}, []float64{0.5}).Build(); err == nil {
		t.Error("rows/probs length mismatch should fail")
	}
	if _, err := NewBuilder().AttributeUncertain("R", []string{"A", "B"}, []Alt{Certain(1)}).Build(); err == nil {
		t.Error("attribute count mismatch should fail")
	}
	if _, err := NewBuilder().
		AttributeUncertain("R", []string{"A"}, []Alt{Choice("x", 0.5, "y", 0.4)}).
		Build(); err == nil || !strings.Contains(err.Error(), "sum to") {
		t.Errorf("probabilities not summing to 1 should fail with a sum error, got %v", err)
	}
	if _, err := NewBuilder().
		AttributeUncertain("R", []string{"A"}, []Alt{Choice("x", 0.5, "y")}).
		Build(); err == nil || !strings.Contains(err.Error(), "pairs") {
		t.Errorf("odd Choice arguments should fail, got %v", err)
	}
	if _, err := NewBuilder().
		AttributeUncertain("R", []string{"A"}, []Alt{Choice("x", 1)}).
		Build(); err == nil || !strings.Contains(err.Error(), "float64") {
		t.Errorf("non-float64 Choice probability should fail, got %v", err)
	}
	if _, err := NewBuilder().
		AttributeUncertain("R", []string{"A"}, []Alt{{Values: []any{"x", "y"}, Probs: []float64{1}}}).
		Build(); err == nil {
		t.Error("values/probs length mismatch should fail")
	}
	if _, err := NewBuilder().
		Table("R", []string{"A"}, []any{1}).
		Independent("R", []string{"A"}, [][]any{{1}}, []float64{0.5}).
		Build(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate relation name should fail, got %v", err)
	}
	if _, err := NewBuilder().
		Independent("R", []string{"A"}, [][]any{{1}}, []float64{0.5}).
		Independent("R", []string{"A"}, [][]any{{2}}, []float64{0.5}).
		Build(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate Independent relation should fail, got %v", err)
	}
}

func TestPrepareErrors(t *testing.T) {
	db := coinDB(t)
	if _, err := db.Prepare("select["); err == nil {
		t.Error("syntax error should fail at Prepare")
	}
	if _, err := db.Prepare("Nope"); err == nil {
		t.Error("unknown relation should fail at Prepare")
	}
	if _, err := db.Prepare("select[Nope = 1](Coins)"); err == nil {
		t.Error("unknown attribute should fail at Prepare")
	}
}

func TestIndependentRelation(t *testing.T) {
	db, err := NewBuilder().
		Independent("R", []string{"ID"},
			[][]any{{1}, {2}, {3}},
			[]float64{0.5, 0.25, 1.0}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(`conf(R)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.EvalExact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{1: 0.5, 2: 0.25, 3: 1.0}
	n := 0
	for row := range res.Rows() {
		n++
		if p := row.Float("P"); math.Abs(p-want[row.Int("ID")]) > 1e-12 {
			t.Errorf("conf(ID=%d) = %v, want %v", row.Int("ID"), p, want[row.Int("ID")])
		}
	}
	if n != 3 {
		t.Errorf("got %d rows, want 3", n)
	}
}

func TestAttributeUncertain(t *testing.T) {
	db, err := NewBuilder().
		AttributeUncertain("Customers", []string{"Name", "City"},
			[]Alt{Choice("Ann", 0.7, "Anna", 0.3), Choice("NYC", 0.8, "Newark", 0.2)},
			[]Alt{Certain("Bob"), Choice("LA", 0.4, "NYC", 0.6)}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(`conf(Customers)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.EvalExact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]float64{}
	for row := range res.Rows() {
		total[row.Str("Name")] += row.Float("P")
	}
	// Marginals per original row must sum to 1 over the alternatives.
	if math.Abs(total["Ann"]+total["Anna"]-1) > 1e-12 {
		t.Errorf("Ann/Anna marginals sum to %v, want 1", total["Ann"]+total["Anna"])
	}
	if math.Abs(total["Bob"]-1) > 1e-12 {
		t.Errorf("Bob marginal sums to %v, want 1", total["Bob"])
	}
}

// TestRepairKeyNamesInjective: two repair-key groups whose key values
// differ only in where a separator falls — ("x,y", "z") and ("x", "y,z")
// — or in bracket and backslash characters get distinct variables.
// Rendered plainly, their names would be equal, and registering the
// second would panic.
func TestRepairKeyNamesInjective(t *testing.T) {
	db, err := NewBuilder().Table("T", []string{"A", "B", "C", "W"},
		[]any{"x,y", "z", "c", 1.0}, []any{"x", "y,z", "c", 1.0},
		[]any{"x]", "y", "c", 1.0}, []any{"x", "]y", "c", 1.0},
		[]any{`x\`, ",y", "c", 1.0}, []any{`x\,`, "y", "c", 1.0},
		[]any{"p", "q", "a,b", 1.0}, []any{"p", "q", "a", 1.0}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(`conf(project[A, B](repairkey[A, B @ W](T)))`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.EvalExact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for row := range res.Rows() {
		if p := row.Float("P"); p != 1 {
			t.Errorf("(%v, %v): P = %v, want 1 — a group's alternatives cover it", row.Value("A"), row.Value("B"), p)
		}
		n++
	}
	if n != 7 {
		t.Errorf("%d groups, want 7", n)
	}
}

// TestRepairKeyTypedKeysDistinct: repair-key keys whose values render alike
// but differ in type are two groups, hence two variables — the string "1"
// and the integer 1 from a builder, an empty CSV cell (NULL) and the text
// NULL from CSV. Each group has one alternative, so each row is certain.
// Registering the second name once panicked with a duplicate variable.
func TestRepairKeyTypedKeysDistinct(t *testing.T) {
	builder, err := NewBuilder().Table("T", []string{"A", "W"}, []any{"1", 1.0}, []any{1, 1.0}).Build()
	if err != nil {
		t.Fatal(err)
	}
	csv, err := NewBuilder().CSV("T", strings.NewReader("A,W\n,1\nNULL,1\n")).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		db   *DB
	}{{"builder", builder}, {"csv", csv}} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := tc.db.Prepare(`conf(repairkey[A @ W](T))`)
			if err != nil {
				t.Fatal(err)
			}
			res, err := q.EvalExact(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for row := range res.Rows() {
				if p := row.Float("P"); p != 1 {
					t.Errorf("%v: P = %v, want 1", row.Value("A"), p)
				}
				n++
			}
			if n != 2 {
				t.Errorf("%d rows, want 2", n)
			}
		})
	}
}
