package pdb

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/conformance"
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/workload"
)

// The engine's memo of estimator-free sub-plans must be invisible: every
// evaluation on a warm engine equals one on a fresh engine in rows, P float
// bits, error bounds, conditions and Stats.Ops, and trips or spills exactly
// as a fresh one does.

// memoRows renders a result's rows in result order: values with their kinds
// and float bit patterns, conditions, error bounds and singular flags.
func memoRows(res *Result) string {
	var b strings.Builder
	for _, row := range res.rows {
		for _, v := range row.vals {
			if v.Kind() == rel.FloatKind {
				fmt.Fprintf(&b, "|%x", math.Float64bits(v.AsFloat()))
			} else {
				fmt.Fprintf(&b, "|%v:%v", v.Kind(), v)
			}
		}
		fmt.Fprintf(&b, "|%s|%x|%v\n", row.cond, math.Float64bits(row.errBound), row.singular)
	}
	return b.String()
}

// memoOps renders Stats.Ops as sorted "op=calls/in/out/bytes" fields.
func memoOps(res *Result) string {
	var ops []string
	for op, s := range res.stats.Ops {
		ops = append(ops, fmt.Sprintf("%s=%d/%d/%d/%d", op, s.Calls, s.TuplesIn, s.TuplesOut, s.Bytes))
	}
	sort.Strings(ops)
	return strings.Join(ops, " ")
}

// memoEval evaluates plan on db, bound to eng, exactly or approximately.
func memoEval(db *DB, eng *Engine, plan algebra.Query, exact bool, opts ...Option) (*Result, error) {
	q := &Query{db: db, plan: plan, eng: eng}
	if exact {
		return q.EvalExact(context.Background(), opts...)
	}
	return q.Eval(context.Background(), opts...)
}

func freshEngine(t *testing.T, db *DB) *Engine {
	t.Helper()
	eng, err := db.Engine()
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// whatIfDB is the serve-mixed corpus: supplier offers Parts(Part, Supplier,
// Cost, Weight).
func whatIfDB(t *testing.T) *DB {
	t.Helper()
	sc, err := workload.ScenarioByName("repair-whatif")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := sc.Generate(t.TempDir(), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(paths)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustPlan(t *testing.T, db *DB, src string) algebra.Query {
	t.Helper()
	q, err := db.Prepare(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return q.plan
}

const whatIfRK = `repairkey[Part @ Weight](Parts)`

type memoProgram struct {
	name string
	db   *DB
	plan algebra.Query
}

// memoCorpus is the conformance corpus plus programs over whatIfDB: the four
// serve-mixed programs; two identical un-let repair-key subtrees; lets bound
// outside and inside an estimator-free sub-plan; a let shadowing the
// database relation a plan before it read; estimator-free programs whose
// rows carry conditions, differing only in an int and a float constant; and
// a σ̂.
func memoCorpus(t *testing.T) []memoProgram {
	var out []memoProgram
	for _, c := range conformance.Corpus(5) {
		out = append(out, memoProgram{"conformance/" + c.Name, &DB{udb: c.DB}, c.Query})
	}
	db := whatIfDB(t)
	add := func(name, src string) { out = append(out, memoProgram{name, db, mustPlan(t, db, src)}) }
	for _, p := range []float64{72, 78, 84, 90} {
		add(fmt.Sprintf("serve-mixed/%g", p), fmt.Sprintf(`conf(project[Part](select[Cost >= %g](%s)))`, p, whatIfRK))
	}
	// The twins are separately maximal — the join between them reads a conf
	// — and their tuples meet in one lineage: P is p² with independent
	// variables, p with shared ones.
	twin := `project[Part, Supplier](` + whatIfRK + `)`
	add("twin-subtrees", `conf(project[Part](join(`+twin+`, join(`+twin+`, conf as P (project[Part](Parts))))))`)
	// One sub-plan entered at two variable-table lengths, and one behind a
	// repair-key that registers no variable (the counter moves alone).
	for _, c := range []int{80, 70} {
		add(fmt.Sprintf("table-offset/%d", c), fmt.Sprintf(`join(conf as P (project[Part](repairkey[Part @ Weight](`+
			`select[Cost >= %d](Parts)))), project[Part, Supplier](select[Cost >= 84](%s)))`, c, whatIfRK))
	}
	add("let-outside", `R := `+whatIfRK+`; conf(project[Part](select[Cost >= 80](R)))`)
	add("unshadowed", `conf(project[Part](`+whatIfRK+`))`)
	add("counter-offset", `union(project[Part, P0 as P](conf as P0 (project[Part](repairkey[Part @ Weight](`+
		`select[Cost >= 1000](Parts))))), conf as P (project[Part](`+whatIfRK+`)))`)
	add("shadowed", `Parts := select[Cost >= 85](Parts); conf(project[Part](`+whatIfRK+`))`)
	add("conditions-int", `project[Part + 1 as Q, Supplier](select[Cost >= 84](`+whatIfRK+`))`)
	add("conditions-float", `project[Part + 1.0 as Q, Supplier](select[Cost >= 84](`+whatIfRK+`))`)
	add("shat", `aselect[p1 >= 0.5 over conf[Part]](select[Cost >= 80](`+whatIfRK+`))`)
	rk := mustPlan(t, db, whatIfRK)
	out = append(out, memoProgram{"let-inside", db, algebra.Conf{In: algebra.Project{
		In: algebra.Let{Name: "R", Def: rk, In: algebra.Join{L: algebra.Base{Name: "R"},
			R: algebra.Select{In: algebra.Base{Name: "R"}, Pred: expr.Ge(expr.A("Cost"), expr.CInt(80))}}},
		Targets: []expr.Target{expr.Keep("Part")},
	}}})
	return out
}

// TestEngineMemoWarmEqualsCold interleaves EvalExact and Eval under two
// seeds at workers 1 and 4 on one engine per database, each result against
// a fresh engine's and a bare query's, which has no memo at all.
func TestEngineMemoWarmEqualsCold(t *testing.T) {
	engines := map[*DB]*Engine{}
	for _, p := range memoCorpus(t) {
		if engines[p.db] == nil {
			engines[p.db] = freshEngine(t, p.db)
		}
		for _, workers := range []int{1, 4} {
			for _, seed := range []int64{3, 11} {
				for _, exact := range []bool{true, false} {
					opts := []Option{WithWorkers(workers), WithSeed(seed), WithEpsilon(0.1), WithConfBudget(0.1, 0.1)}
					key := fmt.Sprintf("%s workers=%d seed=%d exact=%v", p.name, workers, seed, exact)
					warm, err := memoEval(p.db, engines[p.db], p.plan, exact, opts...)
					if err != nil {
						t.Fatalf("%s: warm: %v", key, err)
					}
					for name, eng := range map[string]*Engine{"a fresh engine's": freshEngine(t, p.db), "a bare query's": nil} {
						cold, err := memoEval(p.db, eng, p.plan, exact, opts...)
						if err != nil {
							t.Fatalf("%s: %s: %v", key, name, err)
						}
						if memoRows(warm) != memoRows(cold) {
							t.Errorf("%s: warm rows differ from %s", key, name)
						}
						if memoOps(warm) != memoOps(cold) {
							t.Errorf("%s: warm Ops %s, %s %s", key, memoOps(warm), name, memoOps(cold))
						}
					}
				}
			}
		}
	}
	// A repair-key over a whole relation outgrows the bound; the serve-mixed
	// programs select first.
	var replayed []string
	for db, eng := range engines {
		if entries, _, hits, _ := eng.memo.Stats(); entries > 0 && hits > 0 {
			replayed = append(replayed, db.Relations()...)
		}
	}
	if !slices.Contains(replayed, "Parts") || len(replayed) < 2 {
		t.Errorf("sub-plans replayed only over %v", replayed)
	}
}

// TestEngineMemoMaxMemory: a memory limit that trips a fresh engine trips a
// warm one with an equal *LimitError, and one that does not trip neither —
// also when an operator above the conf charges after a replayed conf. A
// replay refused because its charge would trip the limit is not a memo hit.
func TestEngineMemoMaxMemory(t *testing.T) {
	db := whatIfDB(t)
	conf := `conf(project[Part](select[Cost >= 80](` + whatIfRK + `)))`
	for _, src := range []string{conf, `poss(` + conf + `)`} {
		plan := mustPlan(t, db, src)
		ref, err := memoEval(db, freshEngine(t, db), plan, true)
		if err != nil {
			t.Fatal(err)
		}
		// The memoised sub-plan is conf's input: every operator but lineage
		// and poss.
		var walk, charge int64
		for op, s := range ref.Stats().Ops {
			walk += s.Bytes
			if op != "lineage" && op != "poss" {
				charge += s.Bytes
			}
		}
		warm := freshEngine(t, db)
		if _, err := memoEval(db, warm, plan, true); err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int64{walk / 4, walk / 2, walk * 9 / 10, walk - 1, walk} {
			for _, exact := range []bool{true, false} {
				_, coldErr := memoEval(db, freshEngine(t, db), plan, exact, WithMaxMemory(limit), WithSeed(3))
				_, _, h0, _ := warm.memo.Stats()
				_, warmErr := memoEval(db, warm, plan, exact, WithMaxMemory(limit), WithSeed(3))
				if _, _, h1, _ := warm.memo.Stats(); limit < charge && h1 != h0 {
					t.Errorf("%s: limit %d below the %d-byte entry, exact=%v: memo hits %d → %d",
						src, limit, charge, exact, h0, h1)
				}
				if exact && (coldErr == nil) != (limit == walk) {
					t.Fatalf("fixture: %s: limit %d of a %d-byte walk: err %v", src, limit, walk, coldErr)
				}
				if !reflect.DeepEqual(warmErr, coldErr) {
					t.Errorf("%s: limit %d exact=%v: warm err %v, fresh engine's %v", src, limit, exact, warmErr, coldErr)
				}
			}
		}
	}
}

// TestEngineMemoBypassedBySpill: an evaluation with a spill directory
// neither reads nor writes the memo, and returns the in-memory rows.
func TestEngineMemoBypassedBySpill(t *testing.T) {
	db := whatIfDB(t)
	plan := mustPlan(t, db, `conf(project[Part](select[Cost >= 80](`+whatIfRK+`)))`)
	spill := []Option{WithMaxMemory(4096), WithSpillDir(t.TempDir()), WithSeed(3)}
	cold := freshEngine(t, db)
	warm := freshEngine(t, db)
	for _, exact := range []bool{true, false} {
		if _, err := memoEval(db, cold, plan, exact, spill...); err != nil {
			t.Fatal(err)
		}
		want, err := memoEval(db, warm, plan, exact, WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		e0, b0, h0, _ := warm.memo.Stats()
		got, err := memoEval(db, warm, plan, exact, spill...)
		if err != nil {
			t.Fatal(err)
		}
		if e1, b1, h1, _ := warm.memo.Stats(); e1 != e0 || b1 != b0 || h1 != h0 {
			t.Errorf("exact=%v: spilling evaluation moved the memo from %d/%d/%d to %d/%d/%d entries/bytes/hits",
				exact, e0, b0, h0, e1, b1, h1)
		}
		if memoRows(got) != memoRows(want) {
			t.Errorf("exact=%v: spilled rows differ from the in-memory ones", exact)
		}
	}
	if entries, _, hits, _ := cold.memo.Stats(); entries != 0 || hits != 0 {
		t.Errorf("spilling evaluations on a fresh engine left %d entries, %d hits", entries, hits)
	}
}

// TestEngineMemoBound: a sub-plan larger than the database's footprint is
// never stored — nor does it evict what is — and the engine still answers
// it exactly as a fresh one.
func TestEngineMemoBound(t *testing.T) {
	var rows [][]any
	for i := 0; i < 30; i++ {
		rows = append(rows, []any{i % 10, i, 1.0 + float64(i%3)})
	}
	db, err := NewBuilder().Table("R", []string{"A", "B", "W"}, rows...).Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := freshEngine(t, db)
	if _, err := memoEval(db, eng, mustPlan(t, db, `conf(select[B < 3](R))`), true); err != nil {
		t.Fatal(err)
	}
	// The product is 30 × 30 rows against a 30-row database.
	plan := mustPlan(t, db, `conf(product(repairkey[A @ W](R), project[B as B2](R)))`)
	for i := 0; i < 2; i++ {
		for _, exact := range []bool{true, false} {
			warm, err := memoEval(db, eng, plan, exact, WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			cold, err := memoEval(db, freshEngine(t, db), plan, exact, WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			if memoRows(warm) != memoRows(cold) || memoOps(warm) != memoOps(cold) {
				t.Errorf("pass %d exact=%v: result differs from a fresh engine's", i, exact)
			}
		}
	}
	if entries, _, hits, evictions := eng.memo.Stats(); entries != 1 || hits != 0 || evictions != 0 {
		t.Errorf("over-bound sub-plan: %d entries, %d hits, %d evictions, want the 1 small entry alone",
			entries, hits, evictions)
	}
}

// TestEngineMemoConcurrent runs overlapping programs from many goroutines
// on one engine — hits, misses and evictions interleaved, of sub-plans and
// of the conf results kept beside them (make race runs it under the race
// detector) — each result against a fresh engine's.
func TestEngineMemoConcurrent(t *testing.T) {
	db := whatIfDB(t)
	var plans []algebra.Query
	// Per supplier, lineage spans several parts' variables: it samples.
	for _, p := range []float64{72, 78, 84, 90} {
		plans = append(plans, mustPlan(t, db, fmt.Sprintf(`conf(project[Supplier](select[Cost >= %g](%s)))`, p, whatIfRK)))
	}
	// Sub-plans keeping every column: each retains a large share of the
	// database's footprint, so together they evict each other.
	for _, c := range []float64{55, 60, 65, 70, 75} {
		plans = append(plans, mustPlan(t, db, fmt.Sprintf(`conf(select[Cost >= %g](%s))`, c, whatIfRK)))
	}
	opts := []Option{WithWorkers(2), WithSeed(7), WithConfBudget(0.1, 0.1)}
	want := make([][2]string, len(plans))
	for i, plan := range plans {
		for j, exact := range []bool{true, false} {
			res, err := memoEval(db, freshEngine(t, db), plan, exact, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want[i][j] = memoRows(res) + memoOps(res)
		}
	}
	eng := freshEngine(t, db)
	const goroutines, iters = 6, 12
	var wg sync.WaitGroup
	var cacheHits atomic.Int64 // Σ Stats.CacheHits
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*iters; i++ { // each program twice in a row
				k, j := (g*5+i/2)%len(plans), (g+i/2)%2
				res, err := memoEval(db, eng, plans[k], j == 0, opts...)
				if err == nil && memoRows(res)+memoOps(res) != want[k][j] {
					err = fmt.Errorf("program %d exact=%v: result differs from a fresh engine's", k, j == 0)
				}
				if err != nil {
					errs <- err
					return
				}
				cacheHits.Add(res.stats.CacheHits)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, _, hits, evictions := eng.memo.Stats(); hits == 0 || evictions == 0 {
		t.Errorf("%d hits, %d evictions: the run did not exercise both", hits, evictions)
	}
	// A conf answered from the memo counts its tasks' cache hits without
	// looking the cache up; estimated ones count at most the cache's.
	if served := eng.cache.Stats().Hits; cacheHits.Load() <= served {
		t.Errorf("results counted %d cache hits, the cache served %d: no sampled conf was answered from the memo",
			cacheHits.Load(), served)
	}
}

// TestEngineMemoConfInvisible: a conf the memo answers from its input's
// entry is invisible in rows and in the whole Stats. Every corpus program
// and a conf below a σ̂, flat and stratified, runs cold → warm → warm, exact
// and approximate, at workers 1 and 4, on an engine and on one without a
// memo; each result must equal the other engine's.
func TestEngineMemoConfInvisible(t *testing.T) {
	progs := memoCorpus(t)
	db := progs[len(progs)-1].db
	progs = append(progs, memoProgram{"conf-below-shat", db, mustPlan(t, db,
		`aselect[p1 >= 0.5 over conf[Part]](join(conf as P (project[Part](select[Cost >= 80](`+whatIfRK+`))), `+
			`project[Part, Supplier](select[Cost >= 84](`+whatIfRK+`))))`)})
	for _, p := range progs {
		for _, workers := range []int{1, 4} {
			for _, strata := range []int{0, 4} {
				opts := []Option{WithWorkers(workers), WithSeed(3), WithEpsilon(0.1), WithConfBudget(0.1, 0.1)}
				if strata > 0 {
					opts = append(opts, WithStrata(strata))
				}
				memo, bare := freshEngine(t, p.db), freshEngine(t, p.db)
				bare.memo = nil
				for step, name := range []string{"cold", "warm", "warm again"} {
					for _, exact := range []bool{true, false} {
						key := fmt.Sprintf("%s workers=%d strata=%d %s exact=%v", p.name, workers, strata, name, exact)
						got, err := memoEval(p.db, memo, p.plan, exact, opts...)
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						want, err := memoEval(p.db, bare, p.plan, exact, opts...)
						if err != nil {
							t.Fatalf("%s: without a memo: %v", key, err)
						}
						if memoRows(got) != memoRows(want) {
							t.Errorf("%s: rows differ from an engine without a memo", key)
						}
						if !reflect.DeepEqual(got.stats, want.stats) {
							t.Errorf("%s: step %d Stats\n  %+v, without a memo\n  %+v", key, step, got.stats, want.stats)
						}
					}
				}
			}
		}
	}
}

// TestEngineMemoConfAdmission: a sampled conf is kept only once its batch
// sampled nothing, so fresh seeds never grow the memo; the second
// evaluation of a (program, seed) pair keeps its P values and the third
// answers from them. A conf whose every value is exact — each part's
// lineage ranges over its own repair-key group (dnf.Exclusive) — is kept
// on first sight under a seed-free key: fresh seeds then leave the memo's
// entries, bytes and evictions where the first evaluation left them.
func TestEngineMemoConfAdmission(t *testing.T) {
	db := whatIfDB(t)
	plan := mustPlan(t, db, `conf(project[Supplier](select[Cost >= 84](`+whatIfRK+`)))`)
	eng := freshEngine(t, db)
	eval := func(plan algebra.Query, seed int64) *Result {
		t.Helper()
		res, err := memoEval(db, eng, plan, false, WithSeed(seed), WithConfBudget(0.1, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var first int64
	for seed := int64(1); seed <= 200; seed++ {
		if res := eval(plan, seed); res.stats.SampledTrials == 0 {
			t.Fatalf("fixture: seed %d sampled nothing", seed)
		}
		_, bytes, _, _ := eng.memo.Stats()
		if seed == 1 {
			first = bytes
		} else if bytes != first {
			t.Fatalf("fresh seed %d moved memo bytes %d → %d", seed, first, bytes)
		}
	}
	eval(plan, 200)
	_, kept, hits, _ := eng.memo.Stats()
	if kept <= first {
		t.Errorf("a batch that sampled nothing was not kept: memo bytes %d → %d", first, kept)
	}
	if eval(plan, 200); true {
		if _, bytes, h, _ := eng.memo.Stats(); bytes != kept || h != hits+2 {
			t.Errorf("third evaluation: bytes %d → %d, hits %d → %d, want the sub-plan and its conf answered",
				kept, bytes, hits, h)
		}
	}

	exclusive := mustPlan(t, db, `conf(project[Part](select[Cost >= 84](`+whatIfRK+`)))`)
	eval(exclusive, 1)
	entries, bytes, hits, evictions := eng.memo.Stats()
	for seed := int64(2); seed <= 201; seed++ {
		if res := eval(exclusive, seed); res.stats.SampledTrials != 0 {
			t.Fatalf("fixture: seed %d sampled %d trials on exclusive lineage", seed, res.stats.SampledTrials)
		}
		if e, b, _, ev := eng.memo.Stats(); e != entries || b != bytes || ev != evictions {
			t.Fatalf("fresh seed %d on exclusive lineage: entries %d → %d, bytes %d → %d, evictions %d → %d",
				seed, entries, e, bytes, b, evictions, ev)
		}
	}
	if _, _, h, _ := eng.memo.Stats(); h != hits+2*200 {
		t.Errorf("exclusive lineage: hits %d → %d, want the sub-plan and its conf answered for each fresh seed", hits, h)
	}
}

// TestEngineMemoRetainsWhatItCharges: a memoised select keeps five of the
// rows a projection carved from one large chunk. Stored as it is, the
// entry would pin the whole chunk while the memo charges it for five rows;
// the memo compacts what it admits, so the heap the engine keeps after the
// evaluation stays within the memo's charge plus the engine's own small
// state.
func TestEngineMemoRetainsWhatItCharges(t *testing.T) {
	const n = 40000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, i + 1, i + 2}
	}
	db, err := NewBuilder().Table("R", []string{"A", "B", "C"}, rows...).Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, db, `conf(select[A >= 20000 and A < 20005](project[A, B](R)))`)
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	eng := freshEngine(t, db)
	if res, err := memoEval(db, eng, plan, true); err != nil || res.Len() != 5 {
		t.Fatalf("got %v, %v; want 5 rows", res, err)
	}
	retained := heap() - before
	entries, charged, _, _ := eng.memo.Stats()
	runtime.KeepAlive(eng)
	// The projection's rows 16 384..32 767 share one chunk of 1.3 MB.
	if entries != 1 || retained > charged+256<<10 {
		t.Errorf("%d entries charged %d B; the engine retains %d B", entries, charged, retained)
	}
}
