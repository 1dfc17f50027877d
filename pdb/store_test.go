package pdb_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/workload"

	"repro/pdb"
)

// storeFingerprint captures a result's rows with exact float bit patterns
// and world conditions, schema-generically.
func storeFingerprint(res *pdb.Result) []string {
	cols := res.Columns()
	var out []string
	for row := range res.Rows() {
		s := ""
		for _, c := range cols {
			switch v := row.Value(c).(type) {
			case float64:
				s += fmt.Sprintf("|%x", math.Float64bits(v))
			default:
				s += fmt.Sprintf("|%v", v)
			}
		}
		out = append(out, s+"|"+row.Condition())
	}
	return out
}

// TestStoreCSVBitIdentity is the storage acceptance contract: for every
// corpus scenario, the same query over a pdbstore-backed database and
// over its CSV conversion produces bit-identical results, at workers 1,
// 4, and 8.
func TestStoreCSVBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, sc := range workload.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			dir := t.TempDir()
			stored, err := sc.Generate(dir, 500, 11)
			if err != nil {
				t.Fatal(err)
			}
			// Convert each pdbstore relation to CSV — the same path
			// `pdbcli convert` takes.
			csvs := map[string]string{}
			for name, path := range stored {
				r, err := store.ReadRelation(path, rel.NewInterner())
				if err != nil {
					t.Fatal(err)
				}
				out := filepath.Join(dir, name+".csv")
				f, err := os.Create(out)
				if err != nil {
					t.Fatal(err)
				}
				if err := parser.SaveCSV(f, r); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				csvs[name] = out
			}

			fromStore, err := pdb.Open(stored)
			if err != nil {
				t.Fatal(err)
			}
			fromCSV, err := pdb.Open(csvs)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, workers := range []int{1, 4, 8} {
				for _, db := range []*pdb.DB{fromStore, fromCSV} {
					q, err := db.Prepare(sc.Query)
					if err != nil {
						t.Fatal(err)
					}
					res, err := q.EvalExact(ctx, pdb.WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					got := storeFingerprint(res)
					if len(got) == 0 {
						t.Fatal("query produced no rows")
					}
					if want == nil {
						want = got
					} else if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("workers=%d: result diverges from the workers=1 pdbstore run", workers)
					}
				}
			}
		})
	}
}

// spillDB builds complete relations whose join output is far larger than
// the small memory budgets the spill tests use.
func spillDB(t *testing.T) *pdb.DB {
	t.Helper()
	var a, b [][]any
	for i := 0; i < 400; i++ {
		a = append(a, []any{i % 40, i})
		b = append(b, []any{i % 40, i, float64(i)/7 + 0.5})
	}
	db, err := pdb.NewBuilder().
		Table("A", []string{"K", "X"}, a...).
		Table("B", []string{"K", "J", "Y"}, b...).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// spillProgram joins twice so an older intermediate exists to shed: the
// residency manager never evicts the running operator's own inputs and
// output, so a plan needs at least three live intermediates to spill.
const spillProgram = `project[K, X, Y](union(join(A, B), join(A, B)));`

// TestSpillCompletesOverBudget is the out-of-core acceptance contract: a
// join whose output exceeds WithMaxMemory aborts with a *LimitError
// without a spill directory, and with one it completes, reports spill
// activity, and returns rows bit-identical to an unlimited run.
func TestSpillCompletesOverBudget(t *testing.T) {
	ctx := context.Background()
	db := spillDB(t)
	const budget = 1 << 14 // 16 KiB; the join materializes ~4000 tuples

	q, err := db.Prepare(spillProgram)
	if err != nil {
		t.Fatal(err)
	}
	free, err := q.EvalExact(ctx)
	if err != nil {
		t.Fatal(err)
	}

	_, err = q.EvalExact(ctx, pdb.WithMaxMemory(budget))
	var lim *pdb.LimitError
	if !errors.As(err, &lim) || lim.Resource != "memory" {
		t.Fatalf("without a spill dir the budget should abort with a memory LimitError, got %v", err)
	}

	spilled, err := q.EvalExact(ctx,
		pdb.WithMaxMemory(budget), pdb.WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatalf("spilling evaluation should complete, got %v", err)
	}
	if st := spilled.Stats(); st.SpilledBytes == 0 || st.SpillFiles == 0 {
		t.Errorf("expected spill activity, got %+v", st)
	}
	if fmt.Sprint(storeFingerprint(spilled)) != fmt.Sprint(storeFingerprint(free)) {
		t.Error("spilled result differs from the unlimited run")
	}
}

// TestLimitErrorReportsTrippingTotal: a join of spillProgram may trip the
// budget mid-operator on in-flight bytes it never records; the error
// reports the total that tripped the budget, so in every run the count it
// names exceeds the limit.
func TestLimitErrorReportsTrippingTotal(t *testing.T) {
	q, err := spillDB(t).Prepare(spillProgram)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 50; run++ {
		_, err := q.EvalExact(context.Background(), pdb.WithMaxMemory(20000), pdb.WithWorkers(4))
		var lim *pdb.LimitError
		if !errors.As(err, &lim) || lim.Resource != "memory" {
			t.Fatalf("run %d: want a memory LimitError, got %v", run, err)
		}
		if lim.Used <= lim.Limit {
			t.Fatalf("run %d: %v reports %d bytes, not over the %d limit", run, err, lim.Used, lim.Limit)
		}
	}
}

// TestJoinProbeStopsAtLimit: a join probes the budget with its whole
// in-flight footprint, so over a 9 000-tuple probe side it stops at the
// first probe past the limit, and the error names a total within two
// pairs of the limit (each probe tuple matches one) — not the footprint of
// the join's full output of 9 000 pairs.
func TestJoinProbeStopsAtLimit(t *testing.T) {
	var a, c [][]any
	for i := 0; i < 9000; i++ {
		a = append(a, []any{i % 300, i})
	}
	for i := 0; i < 600; i++ {
		c = append(c, []any{i % 300, i % 5})
	}
	db, err := pdb.NewBuilder().
		Table("A", []string{"K", "X"}, a...).
		Table("C", []string{"K", "Z"}, c...).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(`join(A, C);`)
	if err != nil {
		t.Fatal(err)
	}
	full, err := q.EvalExact(context.Background(), pdb.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	total := full.Stats().Ops["join"].Bytes
	limit := total * 2 / 3
	_, err = q.EvalExact(context.Background(), pdb.WithWorkers(1), pdb.WithMaxMemory(limit))
	var lim *pdb.LimitError
	if !errors.As(err, &lim) || lim.Resource != "memory" {
		t.Fatalf("want a memory LimitError, got %v", err)
	}
	if pairBytes := total / int64(full.Len()); lim.Used <= lim.Limit || lim.Used > lim.Limit+2*pairBytes {
		t.Errorf("%v: want a total within two pairs (%d bytes) over the limit; the full join is %d", err, 2*pairBytes, total)
	}
}

// TestSpillApproxParity checks the approximate path end to end: a conf
// query under a tight budget plus spill dir matches the unlimited run
// bit-for-bit and reports spill stats through Result.Stats.
func TestSpillApproxParity(t *testing.T) {
	ctx := context.Background()
	db := spillDB(t)
	q, err := db.Prepare(`conf as P (project[K](join(A, repairkey[K @ Y](B))));`)
	if err != nil {
		t.Fatal(err)
	}
	opts := []pdb.Option{pdb.WithSeed(5), pdb.WithConfBudget(0.1, 0.1)}
	free, err := q.Eval(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := q.Eval(ctx, append(opts,
		pdb.WithMaxMemory(1<<14), pdb.WithSpillDir(t.TempDir()))...)
	if err != nil {
		t.Fatalf("spilling evaluation should complete, got %v", err)
	}
	if st := spilled.Stats(); st.SpilledBytes == 0 {
		t.Errorf("expected spill activity, got %+v", st)
	}
	if fmt.Sprint(storeFingerprint(spilled)) != fmt.Sprint(storeFingerprint(free)) {
		t.Error("spilled approximate result differs from the unlimited run")
	}
}
