package core

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/dnf"
	"repro/internal/karpluby"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
	"repro/internal/vars"
)

// hardChainDB builds a database whose single conf tuple carries one
// connected chain of n clauses over n skewed variables (clause i binds
// x_i ∧ x_{i+1}) — one hard component, too large for the exact-factoring
// limits, so the stratified sampler genuinely runs. perm reorders clause
// insertion; dup repeats every third clause (both must be invisible to
// canonicalized estimation).
func hardChainDB(n int, perm bool, dup bool) *urel.Database {
	db := urel.NewDatabase()
	vs := make([]vars.Var, n+1)
	for i := range vs {
		p := math.Pow(0.5, float64(1+i%8)) // weights spanning 2^-1 .. 2^-8
		vs[i] = db.Vars.Add("x"+strconv.Itoa(i), []float64{p, 1 - p}, nil)
	}
	clauses := make([]vars.Assignment, n)
	for i := range clauses {
		clauses[i] = vars.MustAssignment(
			vars.Binding{Var: vs[i], Alt: 0},
			vars.Binding{Var: vs[i+1], Alt: 0},
		)
	}
	r := urel.NewRelation(rel.NewSchema("ID"))
	add := func(i int) {
		r.Add(clauses[i], rel.Tuple{rel.Int(0)})
		if dup && i%3 == 0 {
			r.Add(clauses[i], rel.Tuple{rel.Int(0)})
		}
	}
	if perm {
		for i := n - 1; i >= 0; i-- {
			add(i)
		}
	} else {
		for i := 0; i < n; i++ {
			add(i)
		}
	}
	db.AddURelation("R", r, false)
	return db
}

func confP(t *testing.T, db *urel.Database, opts Options) (float64, Stats) {
	t.Helper()
	res, err := NewEngine(db, opts).EvalApprox(algebra.Conf{In: algebra.Base{Name: "R"}})
	if err != nil {
		t.Fatal(err)
	}
	p := urel.Poss(res.Rel)
	if p.Len() != 1 {
		t.Fatalf("got %d conf tuples, want 1", p.Len())
	}
	for _, tp := range p.Tuples() {
		return p.Value(tp, "P").AsFloat(), res.Stats
	}
	return 0, res.Stats
}

// Metamorphic: permuting clause insertion order and duplicating clauses
// must not change a stratified estimate at all — canonicalization and
// dedup make the PRNG streams a function of clause content only.
func TestStratifiedPermutationAndDuplicateInvariance(t *testing.T) {
	opts := Options{Eps0: 0.05, Delta: 0.05, Seed: 19, Strata: 4}
	base, st := confP(t, hardChainDB(14, false, false), opts)
	if st.Strata == 0 {
		t.Fatal("fixture did not reach the stratified sampler")
	}
	for name, db := range map[string]*urel.Database{
		"permuted":   hardChainDB(14, true, false),
		"duplicated": hardChainDB(14, false, true),
		"both":       hardChainDB(14, true, true),
	} {
		if got, _ := confP(t, db, opts); got != base {
			t.Errorf("%s clauses changed the estimate: %v vs %v", name, got, base)
		}
	}
}

// Metamorphic: the worker count must never change a stratified result,
// for any stratum count; the stratum count may (different plans are
// different estimators), but each plan must be internally deterministic.
func TestStratifiedWorkerInvariance(t *testing.T) {
	for _, strata := range []int{1, 4, 8} {
		var base float64
		for wi, workers := range []int{1, 4, 8} {
			opts := Options{Eps0: 0.05, Delta: 0.05, Seed: 7, Strata: strata, Workers: workers}
			got, st := confP(t, hardChainDB(16, false, false), opts)
			if st.EstimatorTrials == 0 {
				t.Fatalf("strata=%d workers=%d sampled nothing", strata, workers)
			}
			if wi == 0 {
				base = got
				continue
			}
			if got != base {
				t.Errorf("strata=%d: %d workers gave %v, 1 worker gave %v", strata, workers, got, base)
			}
		}
	}
}

// The engine's pooled wave loop must reproduce the sequential reference
// loop (karpluby.EstimateAdaptive) bit-for-bit: same canonical residue,
// same task seed, same plan, same chunk streams, same wave schedule.
func TestStratifiedEngineMatchesReferenceLoop(t *testing.T) {
	db := hardChainDB(12, false, false)
	const seed = 5
	eps, delta := 0.1, 0.1
	opts := Options{Eps0: 0.05, Delta: 0.05, ConfEps: eps, ConfDelta: delta, Seed: seed, Strata: 4, Workers: 4}
	got, _ := confP(t, db, opts)

	// Rebuild the residue exactly as newStratJob does: dedup, factor,
	// canonicalize. The chain is one hard component, so the residue is the
	// full clause set and there is no exact part.
	var f dnf.F
	for _, ut := range db.Rels["R"].Tuples() {
		f = append(f, ut.D)
	}
	f = f.Dedup()
	fac := dnf.Factor(f, db.Vars, dnf.DefaultFactorLimits)
	if fac.ExactComponents != 0 || len(fac.Residue) != len(f) {
		t.Fatalf("fixture factored unexpectedly: %+v", fac)
	}
	res, key := newFingerprinter(db.Vars).canonicalF(fac.Residue)
	ref, err := karpluby.EstimateAdaptive(res, db.Vars, karpluby.AdaptiveOptions{
		MaxStrata: 4, Eps: eps, Delta: delta,
		Seed: sched.TaskSeedWords(seed, key.hi, key.lo),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Min(1, math.Max(0, ref.P))
	if got != want {
		t.Errorf("engine estimate %v != reference loop %v", got, want)
	}
}

// A warm stratified evaluation on a shared cache must reuse the cold
// run's per-stratum snapshots and produce the identical result.
func TestStratifiedCacheResumeDeterminism(t *testing.T) {
	db := hardChainDB(16, false, false)
	q := algebra.Conf{In: algebra.Base{Name: "R"}}
	opts := Options{Eps0: 0.05, Delta: 0.05, Seed: 3, Strata: 4}
	cache := NewCache(0)

	cold := NewEngine(db, opts)
	cold.SetCache(cache)
	r1, err := cold.EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewEngine(db, opts)
	warm.SetCache(cache)
	r2, err := warm.EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	if !urel.Poss(r1.Rel).Equal(urel.Poss(r2.Rel)) {
		t.Error("warm stratified run differs from cold run")
	}
	if r2.Stats.CacheHits == 0 || r2.Stats.ReusedTrials == 0 {
		t.Errorf("warm run resumed nothing: hits=%d reused=%d",
			r2.Stats.CacheHits, r2.Stats.ReusedTrials)
	}
	if r2.Stats.EstimatorTrials >= r1.Stats.EstimatorTrials {
		t.Errorf("warm run sampled %d trials, cold sampled %d — no reuse benefit",
			r2.Stats.EstimatorTrials, r1.Stats.EstimatorTrials)
	}
}

// Factoring pre-pass: a lineage of independent single-clause components
// must be computed exactly — zero sampling, exact result, and the
// ExactFactored counter visible in Stats.
func TestStratifiedFactorsIndependentLineage(t *testing.T) {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	probs := []float64{0.3, 0.04, 0.0017}
	for i, p := range probs {
		v := db.Vars.Add("y"+strconv.Itoa(i), []float64{p, 1 - p}, nil)
		r.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 0}), rel.Tuple{rel.Int(0)})
	}
	db.AddURelation("R", r, false)
	got, st := confP(t, db, Options{Eps0: 0.05, Delta: 0.05, Seed: 1, Strata: 4})
	want := 1 - (1-probs[0])*(1-probs[1])*(1-probs[2])
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("factored conf = %v, want exactly %v", got, want)
	}
	if st.EstimatorTrials != 0 {
		t.Errorf("fully-factorable lineage sampled %d trials", st.EstimatorTrials)
	}
	if st.ExactFactored == 0 {
		t.Error("Stats.ExactFactored not reported")
	}
}
