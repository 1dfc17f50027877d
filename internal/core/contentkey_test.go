package core

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// TestCrossEvalCacheReuse is the engine-level acceptance contract of the
// content-keyed cache: with a shared cache attached, a repeated identical
// evaluation resumes its Karp–Luby state (ReusedTrials > 0, CacheHits > 0,
// the fixed-budget conf arm replays entirely) and its results are
// bit-identical to a cold run — for every worker count.
func TestCrossEvalCacheReuse(t *testing.T) {
	q := resumeQuery()
	var want []string
	for _, workers := range []int{1, 4, 8} {
		db := resumeDB(3, 2)
		cold := NewEngine(db, resumeOpts(101, workers))
		ref, err := cold.EvalApprox(q)
		if err != nil {
			t.Fatalf("workers=%d cold: %v", workers, err)
		}
		warmEng := NewEngine(db, resumeOpts(101, workers))
		warmEng.SetCache(NewCache(1024))
		first, err := warmEng.EvalApprox(q)
		if err != nil {
			t.Fatalf("workers=%d first: %v", workers, err)
		}
		second, err := warmEng.EvalApprox(q)
		if err != nil {
			t.Fatalf("workers=%d second: %v", workers, err)
		}
		if second.Stats.ReusedTrials <= first.Stats.ReusedTrials {
			t.Errorf("workers=%d: second eval reused %d trials, first %d — cross-eval reuse missing",
				workers, second.Stats.ReusedTrials, first.Stats.ReusedTrials)
		}
		if second.Stats.CacheHits == 0 {
			t.Errorf("workers=%d: second eval reports no cache hits", workers)
		}
		if second.Stats.EstimatorTrials >= first.Stats.EstimatorTrials {
			t.Errorf("workers=%d: second eval sampled %d trials, first %d — warm run should sample fewer",
				workers, second.Stats.EstimatorTrials, first.Stats.EstimatorTrials)
		}
		for name, res := range map[string]*Result{"cold-ref": ref, "warm-1st": first, "warm-2nd": second} {
			got := resultFingerprint(t, res)
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d %s: %d tuples, want %d", workers, name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("workers=%d %s: tuple %d differs from reference:\n got %s\nwant %s",
						workers, name, i, got[i], want[i])
				}
			}
		}
	}
}

// shuffledCloneDB rebuilds resumeDB-style content with variables registered
// and tuples inserted in a different order, so raw variable ids and lineage
// enumeration order both differ while the lineage *content* (variable
// names, distributions, clause sets) is identical.
func shuffledCloneDB(nShat, nConf int) *urel.Database {
	db := urel.NewDatabase()
	// Register the S-variables first and iterate tuples backwards: every
	// vars.Var id differs from resumeDB's and every clause list is built
	// in reversed order.
	s := urel.NewRelation(rel.NewSchema("SID"))
	for i := nConf - 1; i >= 0; i-- {
		for j := 3; j >= 0; j-- {
			v := db.Vars.Add("s"+strconv.Itoa(i)+"_"+strconv.Itoa(j), []float64{0.3, 0.7}, nil)
			s.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
		}
	}
	r := urel.NewRelation(rel.NewSchema("ID"))
	for i := nShat - 1; i >= 0; i-- {
		for j := 3; j >= 0; j-- {
			v := db.Vars.Add("r"+strconv.Itoa(i)+"_"+strconv.Itoa(j), []float64{0.3, 0.7}, nil)
			r.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
		}
	}
	db.AddURelation("R", r, false)
	db.AddURelation("S", s, false)
	return db
}

// TestContentKeysSurviveReordering pins what makes the keys *content* keys:
// a database holding the same lineage content under different variable ids,
// clause orders, and tuple orders hits the same cache entries (content
// fingerprints canonicalize all three away) and produces bit-identical
// estimates.
func TestContentKeysSurviveReordering(t *testing.T) {
	q := resumeQuery()
	cache := NewCache(1024)

	eng1 := NewEngine(resumeDB(3, 2), resumeOpts(77, 2))
	eng1.SetCache(cache)
	res1, err := eng1.EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}

	eng2 := NewEngine(shuffledCloneDB(3, 2), resumeOpts(77, 2))
	eng2.SetCache(cache)
	res2, err := eng2.EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}

	if res2.Stats.CacheHits == 0 || res2.Stats.ReusedTrials == 0 {
		t.Errorf("reordered database missed the shared cache: hits=%d reused=%d",
			res2.Stats.CacheHits, res2.Stats.ReusedTrials)
	}
	got1, got2 := resultFingerprint(t, res1), resultFingerprint(t, res2)
	if len(got1) != len(got2) {
		t.Fatalf("result sizes differ: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Errorf("tuple %d differs across content-equal databases:\n got %s\nwant %s",
				i, got2[i], got1[i])
		}
	}
	// And independently of any cache: content-equal databases evaluated
	// cold must agree bit-for-bit, because the PRNG streams derive from
	// content fingerprints rather than variable ids.
	cold, err := NewEngine(shuffledCloneDB(3, 2), resumeOpts(77, 2)).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	gotCold := resultFingerprint(t, cold)
	for i := range got1 {
		if got1[i] != gotCold[i] {
			t.Errorf("cold tuple %d differs across content-equal databases:\n got %s\nwant %s",
				i, gotCold[i], got1[i])
		}
	}
}

// TestSeedIsolation: a shared cache must never leak counts between engine
// seeds — the streams differ, so reuse would break bit-identity with a
// cold run.
func TestSeedIsolation(t *testing.T) {
	q := resumeQuery()
	db := resumeDB(2, 1)
	cache := NewCache(1024)
	engA := NewEngine(db, resumeOpts(1, 1))
	engA.SetCache(cache)
	if _, err := engA.EvalApprox(q); err != nil {
		t.Fatal(err)
	}
	engB := NewEngine(db, resumeOpts(2, 1))
	engB.SetCache(cache)
	warm, err := engB.EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewEngine(db, resumeOpts(2, 1)).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	got, want := resultFingerprint(t, warm), resultFingerprint(t, cold)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tuple %d: seed-2 run over a seed-1 cache differs from a cold seed-2 run:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}
}

// TestTrialsLimit pins the sampled-trials limit: a tight MaxTrials aborts
// the evaluation with a typed *LimitError naming the resource, and a
// generous one stays silent.
func TestTrialsLimit(t *testing.T) {
	db := resumeDB(3, 2)
	q := resumeQuery()
	opts := resumeOpts(7, 4)
	opts.MaxTrials = 1000
	_, err := NewEngine(db, opts).EvalApprox(q)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("EvalApprox error = %v, want *LimitError", err)
	}
	if le.Resource != "trials" || le.Limit != 1000 || le.Used <= le.Limit {
		t.Errorf("unexpected limit error %+v", le)
	}
	opts.MaxTrials = 1 << 40
	if _, err := NewEngine(db, opts).EvalApprox(q); err != nil {
		t.Errorf("generous trials limit still errored: %v", err)
	}
}

// TestMemoryLimit pins the memory limit on a product blow-up: the
// operator's running bytes estimate trips the budget and the
// evaluation aborts with a typed *LimitError.
func TestMemoryLimit(t *testing.T) {
	db := urel.NewDatabase()
	mk := func(name, col string, n int) {
		r := urel.NewRelation(rel.NewSchema(col))
		for i := 0; i < n; i++ {
			r.Add(nil, rel.Tuple{rel.Int(int64(i))})
		}
		db.AddURelation(name, r, true)
	}
	mk("L", "A", 300)
	mk("R", "B", 300)
	q := algebra.Product{L: algebra.Base{Name: "L"}, R: algebra.Base{Name: "R"}}
	opts := Options{Eps0: 0.05, Delta: 0.1, Seed: 1, MaxMemory: 64 << 10}
	_, err := NewEngine(db, opts).EvalApprox(q)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("EvalApprox error = %v, want *LimitError", err)
	}
	if le.Resource != "memory" || le.Limit != 64<<10 {
		t.Errorf("unexpected limit error %+v", le)
	}
	// The same product fits a generous budget (90k pairs ≈ a few MB).
	opts.MaxMemory = 1 << 30
	res, err := NewEngine(db, opts).EvalApprox(q)
	if err != nil {
		t.Fatalf("generous memory limit errored: %v", err)
	}
	if res.Rel.Len() != 300*300 {
		t.Errorf("product produced %d tuples, want %d", res.Rel.Len(), 300*300)
	}
}
