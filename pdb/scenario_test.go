package pdb

import (
	"context"
	"math"
	"testing"
)

// Spec scenarios for stratified estimation and its effort knobs, written
// SHALL / WHEN / THEN against the public API. The fixture is built so the
// conf lineages form one hard connected component per output tuple
// (clauses share variables through the product), keeping the factoring
// pre-pass from collapsing everything to exact arithmetic: the scenarios
// genuinely exercise the sampling path.

// skewDB builds two independent relations whose product has strongly
// skewed clause weights — the shape stratification exists for. Grp splits
// R's rows into three groups of two, so conf over Grp yields three tuples
// with well-separated probabilities, each backed by one connected
// 12-clause component (too large for the exact-factoring limits).
func skewDB(t *testing.T) *DB {
	t.Helper()
	probsR := []float64{0.9, 0.6, 0.05, 0.02, 0.002, 0.0005}
	rowsR := make([][]any, len(probsR))
	for i := range probsR {
		rowsR[i] = []any{int64(i), int64(i / 2)}
	}
	db, err := NewBuilder().
		Independent("R", []string{"ID", "Grp"}, rowsR, probsR).
		Independent("S", []string{"SID"},
			[][]any{{int64(1)}, {int64(2)}, {int64(3)}, {int64(4)}, {int64(5)}, {int64(6)}},
			[]float64{0.8, 0.3, 0.04, 0.01, 0.002, 0.001}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// exactByGrp evaluates the program exactly and returns Grp → P.
func exactByGrp(t *testing.T, db *DB, program string) map[int64]float64 {
	t.Helper()
	q, err := db.Prepare(program)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.EvalExact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]float64{}
	for row := range res.Rows() {
		out[row.Int("Grp")] = row.Float("P")
	}
	return out
}

const grpConfProgram = `conf(project[Grp](product(R, S)))`

// SHALL: conf under WithStrata meets its (ε, δ) budget on skewed-weight
// lineage, reports stratification statistics, and stays deterministic.
// WHEN a conf query over a hard multi-clause lineage runs with
// stratification enabled. THEN every estimate is within the relative ε
// of the exact probability, Stats exposes strata and sampling work, and
// repeated/worker-varied evaluations are bit-identical.
func TestScenarioStratifiedConfAccuracy(t *testing.T) {
	db := skewDB(t)
	want := exactByGrp(t, db, grpConfProgram)
	q, err := db.Prepare(grpConfProgram)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithStrata(8), WithConfBudget(0.05, 0.05), WithSeed(11)}
	res, err := q.Eval(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != len(want) {
		t.Fatalf("got %d rows, want %d", res.Len(), len(want))
	}
	for row := range res.Rows() {
		g, p := row.Int("Grp"), row.Float("P")
		if w := want[g]; math.Abs(p-w) > 0.1*w {
			t.Errorf("conf(Grp=%d) = %v, want %v ± 10%%", g, p, w)
		}
	}
	st := res.Stats()
	if st.Strata == 0 {
		t.Error("stratified evaluation should report Stats.Strata > 0")
	}
	if st.SampledTrials == 0 {
		t.Error("stratified evaluation should have sampled trials")
	}
	base := fingerprint(res)
	for _, workers := range []int{1, 4, 8} {
		again, err := q.Eval(context.Background(), append(opts, WithWorkers(workers))...)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(again) != base {
			t.Errorf("stratified result differs with %d workers", workers)
		}
	}
}

// SHALL: stratified σ̂ selection decides predicates like the flat path.
// WHEN an aselect over conf arguments runs with stratification. THEN
// the emitted tuple set matches the exact evaluation's and repeated runs
// are deterministic.
func TestScenarioStratifiedSelect(t *testing.T) {
	db := skewDB(t)
	const program = `aselect[p1 >= 0.3 over conf[Grp]](project[Grp](product(R, S)))`
	q, err := db.Prepare(program)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := q.EvalExact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Eval(context.Background(), WithStrata(4), WithSeed(9), WithEpsilon(0.02), WithDelta(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != exact.Len() {
		t.Errorf("stratified σ̂ emitted %d tuples, exact emits %d", res.Len(), exact.Len())
	}
	again, err := q.Eval(context.Background(), WithStrata(4), WithSeed(9), WithEpsilon(0.02), WithDelta(0.02), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(again) != fingerprint(res) {
		t.Error("stratified σ̂ is not deterministic across runs/workers")
	}
}

// SHALL: the stratified options validate their domains. WHEN out-of-range
// values are supplied. THEN evaluation fails with a typed *OptionError
// before any work happens.
func TestScenarioStratifiedOptionValidation(t *testing.T) {
	db := skewDB(t)
	q, err := db.Prepare(grpConfProgram)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Option{
		"WithStrata zero": WithStrata(0),
		"WithStrata huge": WithStrata(5000),
	} {
		if _, err := q.Eval(context.Background(), opt); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// SHALL: stratified σ̂ budgets are allocated variance-aware in doubling
// waves — each wave's per-stratum split decided on the merged counts so
// far — and the trajectory is a pure function of the seed.
// WHEN the same stratified aselect runs with 1, 4, and 8 workers. THEN
// every run's rows are bit-identical, and the decisions match the exact
// evaluation.
func TestScenarioSigmaHatVarianceAwareWorkerParity(t *testing.T) {
	db := skewDB(t)
	const program = `aselect[p1 >= 0.3 over conf[Grp]](project[Grp](product(R, S)))`
	q, err := db.Prepare(program)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := q.EvalExact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range []int{1, 4, 8} {
		res, err := q.Eval(context.Background(),
			WithStrata(4), WithSeed(11), WithEpsilon(0.02), WithDelta(0.02),
			WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != exact.Len() {
			t.Errorf("workers=%d: σ̂ emitted %d tuples, exact emits %d", workers, res.Len(), exact.Len())
		}
		got := fingerprint(res)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: rows diverge from workers=1 run", workers)
		}
	}
}
