package algebra

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
	"repro/internal/vars"
)

// parallelDB builds a database whose lineage groups are many enough to
// spread over several workers: two uncertain relations sharing variables
// and a weighted complete relation for repair-key.
func parallelDB() *urel.Database {
	rng := rand.New(rand.NewSource(4242))
	db := urel.NewDatabase()
	nv := 16
	for i := 0; i < nv; i++ {
		p := 0.2 + 0.6*rng.Float64()
		db.Vars.Add("w"+strconv.Itoa(i), []float64{p, 1 - p}, nil)
	}
	mk := func(schema rel.Schema, n, keys int) *urel.Relation {
		r := urel.NewRelation(schema)
		for i := 0; i < n; i++ {
			d := vars.MustAssignment(vars.Binding{
				Var: vars.Var(rng.Intn(nv)),
				Alt: int32(rng.Intn(2)),
			})
			row := make(rel.Tuple, len(schema))
			row[0] = rel.Int(int64(rng.Intn(keys)))
			for j := 1; j < len(row); j++ {
				row[j] = rel.Int(int64(rng.Intn(6)))
			}
			r.Add(d, row)
		}
		return r
	}
	db.AddURelation("R", mk(rel.NewSchema("K", "A"), 900, 30), false)
	db.AddURelation("S", mk(rel.NewSchema("K", "B"), 700, 30), false)
	k := rel.NewRelation(rel.NewSchema("G", "W"))
	for i := 0; i < 200; i++ {
		k.Add(rel.Tuple{rel.Int(int64(i % 25)), rel.Float(1 + float64(i%5))})
	}
	db.AddComplete("T", k)
	return db
}

// exactFingerprint renders an exact result's full content and order,
// with float columns pinned to their exact bit patterns.
func exactFingerprint(res URelResult) string {
	var b strings.Builder
	for _, t := range res.Rel.Tuples() {
		b.WriteString(t.D.Key())
		b.WriteString("||")
		for i, v := range t.Row {
			if i > 0 {
				b.WriteByte('|')
			}
			if v.Kind() == rel.FloatKind {
				b.WriteString(strconv.FormatUint(math.Float64bits(v.AsFloat()), 16))
			} else {
				b.WriteString(v.Key())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// parallelPlans are exact UA plans over every operator — hash join, union,
// selection, projection, repair-key — under each consumer of the per-group
// confidence fan-out: exact conf (one over many small groups), cert, and
// σ̂ with a two-argument predicate.
func parallelPlans() map[string]Query {
	joinRS := Join{L: Base{Name: "R"}, R: Base{Name: "S"}}
	return map[string]Query{
		"conf-join": Conf{In: joinRS, As: "P"},
		"conf-union-select": Conf{
			In: Union{
				L: Select{In: joinRS, Pred: expr.Ge(expr.A("A"), expr.CInt(2))},
				R: Select{In: joinRS, Pred: expr.Le(expr.A("B"), expr.CInt(3))},
			},
			As: "P",
		},
		"conf-project-repairkey": Conf{
			In: Join{
				L: Project{In: joinRS, Targets: []expr.Target{expr.Keep("K"), expr.Keep("A")}},
				R: Project{
					In:      RepairKey{In: Base{Name: "T"}, Key: []string{"G"}, Weight: "W"},
					Targets: []expr.Target{expr.As("K", expr.A("G"))},
				},
			},
			As: "P",
		},
		"conf-many-groups": Conf{
			In: Project{In: joinRS, Targets: []expr.Target{expr.Keep("K"), expr.Keep("A")}},
			As: "P",
		},
		"cert-join": Cert{In: joinRS},
		"shat-two-args": ApproxSelect{
			In:   joinRS,
			Args: []ConfArg{{Attrs: []string{"A"}}, {Attrs: nil}},
			Pred: predapprox.Linear([]float64{1, -0.2}, 0.1),
		},
	}
}

// TestExactWorkersBitIdentical is the exact-algebra mirror of the
// sampler's TestWorkersBitIdentical: the operators and the plan walk are
// sequential, and what varies with the worker count is the per-group
// exact confidence fan-out (exactEstimators under conf and σ̂, CertExact
// under cert). At workers 1, 4 and 8 it must produce results
// byte-identical — including float bit patterns of conf and σ̂ columns and
// tuple order — to the one-worker evaluator.
func TestExactWorkersBitIdentical(t *testing.T) {
	db := parallelDB()
	for name, q := range parallelPlans() {
		seqRes, err := NewURelEvaluator(db).Eval(q)
		if err != nil {
			t.Fatalf("%s: sequential eval: %v", name, err)
		}
		want := exactFingerprint(seqRes)
		if seqRes.Rel.Len() == 0 {
			t.Fatalf("%s: degenerate plan (empty result)", name)
		}
		for _, workers := range []int{1, 4, 8} {
			res, err := NewParallelURelEvaluator(db, sched.New(workers)).Eval(q)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got := exactFingerprint(res); got != want {
				t.Errorf("%s workers=%d: result differs from sequential path", name, workers)
			}
			if len(res.Ops) == 0 {
				t.Errorf("%s workers=%d: no operator stats on top-level result", name, workers)
			}
		}
	}
}

// TestOpsPerEvaluation pins that a reused evaluator reports each
// evaluation's own operator statistics, not a running total.
func TestOpsPerEvaluation(t *testing.T) {
	db := parallelDB()
	ev := NewURelEvaluator(db)
	q := Join{L: Base{Name: "R"}, R: Base{Name: "S"}}
	r1, err := ev.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ev.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ops["join"].Calls != 1 || r2.Ops["join"].Calls != 1 {
		t.Errorf("reused evaluator accumulated stats: first %+v, second %+v",
			r1.Ops["join"], r2.Ops["join"])
	}
	if r1.Ops["join"] != r2.Ops["join"] {
		t.Errorf("identical evaluations report different stats: %+v vs %+v",
			r1.Ops["join"], r2.Ops["join"])
	}
}

// sequentialEstimators is exact estimation that (like the sampling
// estimators of internal/core) must not be called from concurrent
// branches; calls counts invocations.
type sequentialEstimators struct {
	exactEstimators
	calls int
}

func (s *sequentialEstimators) Estimate(table *vars.Table, args [][]dnf.F, decide bool) (Estimates, error) {
	s.calls++ // unsynchronized on purpose: -race flags a concurrent call
	return s.exactEstimators.Estimate(table, args, decide)
}

// TestSequentialEstimatorsPlanOrder pins the estimator contract of
// WithEstimators on a four-worker pool: two conf branches under an
// unsynchronized estimator (this test runs under -race in `make race`)
// call it once each, one after the other, and the result matches the exact
// one.
func TestSequentialEstimatorsPlanOrder(t *testing.T) {
	db := parallelDB()
	pure := Join{L: Base{Name: "R"}, R: Base{Name: "S"}}
	confBranch := Conf{In: pure, As: "P"}
	est := &sequentialEstimators{exactEstimators: exactEstimators{sched.New(1)}}
	seq := NewParallelURelEvaluator(db, sched.New(4)).WithEstimators(est)
	q := Join{L: confBranch, R: Conf{In: Base{Name: "R"}, As: "P2"}}
	got, err := seq.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewURelEvaluator(db).Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if est.calls != 2 || exactFingerprint(got) != exactFingerprint(want) {
		t.Errorf("sequential estimators: %d conf calls, result equal to exact: %v",
			est.calls, exactFingerprint(got) == exactFingerprint(want))
	}
}
