package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/workload"
)

// shatFingerprint hashes every deterministic result of an approximate
// evaluation: tuples in result order with float bit patterns, the complete
// error and singular maps (they may hold keys of tuples a later operator
// dropped, and the doubling loop reads those too), completeness and the
// trial / restart / decision counters.
func shatFingerprint(r *Result) string {
	var b strings.Builder
	for _, ut := range r.Rel.Tuples() {
		b.WriteString(ut.D.Key())
		for _, v := range ut.Row {
			if v.Kind() == rel.FloatKind {
				fmt.Fprintf(&b, "|%x", math.Float64bits(v.AsFloat()))
			} else {
				b.WriteString("|" + v.Key())
			}
		}
		b.WriteByte('\n')
	}
	var lines []string
	for row, mu := range r.Bounds.All() {
		if mu > 0 {
			lines = append(lines, fmt.Sprintf("err %s=%x", row.Key(), math.Float64bits(r.TupleError(row))))
		}
		if r.IsSingular(row) {
			lines = append(lines, fmt.Sprintf("sing %s=%v", row.Key(), true))
		}
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	fmt.Fprintf(&b, "\ncomplete=%v trials=%d restarts=%d decisions=%d", r.Complete,
		r.Stats.EstimatorTrials, r.Stats.Restarts, r.Stats.Decisions)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}

// opsFingerprint renders the per-operator statistics in operator order, as
// "op=calls/tuples-in/tuples-out/bytes" — kept readable rather than hashed,
// so a change that is allowed to shrink them shows by how much.
func opsFingerprint(r *Result) string {
	var lines []string
	for op, s := range r.Stats.Ops {
		lines = append(lines, fmt.Sprintf("%s=%d/%d/%d/%d", op, s.Calls, s.TuplesIn, s.TuplesOut, s.Bytes))
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}

// shatOverR is the σ̂ the conf_over_shat fixtures share: keep the IDs of R
// whose confidence is at least 0.5.
func shatOverR() algebra.ApproxSelect {
	return algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.5),
	}
}

// shatFixtures are the plans of conf_over_shat_test.go over their shared
// database (plus Names and Drop), and one hard-lineage conf / σ̂ pair whose
// clause sets are too big to factor, so Strata > 0 really samples.
func shatFixtures() (*urel.Database, *urel.Database, map[string]algebra.Query, map[string]algebra.Query) {
	db := multiClauseDB(4, 0.8)
	db.AddComplete("Names", rel.FromRows(rel.NewSchema("ID", "Label"),
		rel.Tuple{rel.Int(0), rel.String("a")},
		rel.Tuple{rel.Int(1), rel.String("b")},
	))
	db.AddComplete("Drop", rel.FromRows(rel.NewSchema("ID"), rel.Tuple{rel.Int(0)}))
	shat := shatOverR()
	ids := algebra.Project{In: shat, Targets: []expr.Target{expr.Keep("ID")}}
	easy := map[string]algebra.Query{
		"conf-over-shat": algebra.Conf{In: ids, As: "PC"},
		"poss":           algebra.Poss{In: shat},
		"cert":           algebra.Cert{In: shat},
		"select":         algebra.Select{In: shat, Pred: expr.Le(expr.A("ID"), expr.CInt(1))},
		"join":           algebra.Join{L: shat, R: algebra.Base{Name: "Names"}},
		"diff":           algebra.DiffC{L: ids, R: algebra.Base{Name: "Drop"}},
		// σ̂ over a σ̂ result: the inner bounds enter as provenance error.
		"nested-shat": algebra.ApproxSelect{In: ids, Args: shat.Args, Pred: shat.Pred},
	}
	hardDB := workload.MultiClause(rand.New(rand.NewSource(3)), "R", 6, 24, 20, 3)
	hard := map[string]algebra.Query{
		"hard-conf": algebra.Conf{In: algebra.Base{Name: "R"}},
		"hard-shat": shat,
	}
	return db, hardDB, easy, hard
}

// shatGolden holds shatFingerprint per "fixture/seed/strata" (same
// contract and re-recording procedure as pdb's corpusGolden; last
// re-recorded when variables became 64-bit identities).
var shatGolden = map[string]string{
	"cert/1/0":            "d4cb16ce15a1e06e",
	"cert/1/8":            "e6f0555a9393a1fe",
	"cert/42/0":           "3cf8eff152cc0226",
	"cert/42/8":           "e6f0555a9393a1fe",
	"cert/7/0":            "173b541aca2649a7",
	"cert/7/8":            "e6f0555a9393a1fe",
	"conf-over-shat/1/0":  "f4f5e04f1fb75c6c",
	"conf-over-shat/1/8":  "7c4c09bbef559c14",
	"conf-over-shat/42/0": "8b453bd88c0c817c",
	"conf-over-shat/42/8": "7c4c09bbef559c14",
	"conf-over-shat/7/0":  "2f36e65ac703c187",
	"conf-over-shat/7/8":  "7c4c09bbef559c14",
	"diff/1/0":            "b061b19e2648b9be",
	"diff/1/8":            "c724dc911788ead4",
	"diff/42/0":           "2d035cd10ccc9ec8",
	"diff/42/8":           "c724dc911788ead4",
	"diff/7/0":            "9d41e357ccbe842f",
	"diff/7/8":            "c724dc911788ead4",
	"hard-conf/1/0":       "de4646e710da5e3f",
	"hard-conf/1/8":       "663f66fb63f3295a",
	"hard-conf/42/0":      "f5f88200041729dd",
	"hard-conf/42/8":      "ee7f07403e3a81ae",
	"hard-conf/7/0":       "754568b5cd265195",
	"hard-conf/7/8":       "1c901e8d58927202",
	"hard-shat/1/0":       "bd5e421c0026594f",
	"hard-shat/1/8":       "8904c5a8d86de810",
	"hard-shat/42/0":      "32e433194aa7fa4d",
	"hard-shat/42/8":      "8d0eaf6dbf07aaf2",
	"hard-shat/7/0":       "453a65fc8846173b",
	"hard-shat/7/8":       "4eb1597b0e6e47f2",
	"join/1/0":            "bd378fda009ae80d",
	"join/1/8":            "8508f56afd8342fd",
	"join/42/0":           "8eba9907b009c8fd",
	"join/42/8":           "8508f56afd8342fd",
	"join/7/0":            "e19eda60e98f1028",
	"join/7/8":            "8508f56afd8342fd",
	"nested-shat/1/0":     "f7939688c1e2e408",
	"nested-shat/1/8":     "37dd11e8af553e96",
	"nested-shat/42/0":    "eed50e32887c73de",
	"nested-shat/42/8":    "37dd11e8af553e96",
	"nested-shat/7/0":     "cfeedc543718135a",
	"nested-shat/7/8":     "37dd11e8af553e96",
	"poss/1/0":            "d4cb16ce15a1e06e",
	"poss/1/8":            "e6f0555a9393a1fe",
	"poss/42/0":           "3cf8eff152cc0226",
	"poss/42/8":           "e6f0555a9393a1fe",
	"poss/7/0":            "173b541aca2649a7",
	"poss/7/8":            "e6f0555a9393a1fe",
	"select/1/0":          "d5b8ad63c239be2e",
	"select/1/8":          "719139b71e5322a4",
	"select/42/0":         "5b41296f2e1e7f60",
	"select/42/8":         "719139b71e5322a4",
	"select/7/0":          "b9284fd6ed48a9b2",
	"select/7/8":          "719139b71e5322a4",
}

// shatOpsGolden holds opsFingerprint per "fixture/seed/strata": the exact
// algebra each evaluation ran, summed over its walks (recorded with
// shatGolden, same procedure).
var shatOpsGolden = map[string]string{
	"cert/1/0":            "cert=1/4/4/240 lineage=1/8/4/432 project=1/8/8/800",
	"cert/1/8":            "cert=1/4/4/240 lineage=1/8/4/432 project=1/8/8/800",
	"cert/42/0":           "cert=1/4/4/240 lineage=1/8/4/432 project=1/8/8/800",
	"cert/42/8":           "cert=1/4/4/240 lineage=1/8/4/432 project=1/8/8/800",
	"cert/7/0":            "cert=1/4/4/240 lineage=1/8/4/432 project=1/8/8/800",
	"cert/7/8":            "cert=1/4/4/240 lineage=1/8/4/432 project=1/8/8/800",
	"conf-over-shat/1/0":  "lineage=2/12/8/768 project=2/12/12/1168",
	"conf-over-shat/1/8":  "lineage=2/12/8/768 project=2/12/12/1168",
	"conf-over-shat/42/0": "lineage=2/12/8/768 project=2/12/12/1168",
	"conf-over-shat/42/8": "lineage=2/12/8/768 project=2/12/12/1168",
	"conf-over-shat/7/0":  "lineage=2/12/8/768 project=2/12/12/1168",
	"conf-over-shat/7/8":  "lineage=2/12/8/768 project=2/12/12/1168",
	"diff/1/0":            "diffc=1/5/3/276 lineage=1/8/4/432 project=2/12/12/1168",
	"diff/1/8":            "diffc=1/5/3/276 lineage=1/8/4/432 project=2/12/12/1168",
	"diff/42/0":           "diffc=1/5/3/276 lineage=1/8/4/432 project=2/12/12/1168",
	"diff/42/8":           "diffc=1/5/3/276 lineage=1/8/4/432 project=2/12/12/1168",
	"diff/7/0":            "diffc=1/5/3/276 lineage=1/8/4/432 project=2/12/12/1168",
	"diff/7/8":            "diffc=1/5/3/276 lineage=1/8/4/432 project=2/12/12/1168",
	"hard-conf/1/0":       "lineage=1/120/6/3240",
	"hard-conf/1/8":       "lineage=1/120/6/3240",
	"hard-conf/42/0":      "lineage=1/120/6/3240",
	"hard-conf/42/8":      "lineage=1/120/6/3240",
	"hard-conf/7/0":       "lineage=1/120/6/3240",
	"hard-conf/7/8":       "lineage=1/120/6/3240",
	"hard-shat/1/0":       "lineage=1/120/6/3240 project=1/120/120/12912",
	"hard-shat/1/8":       "lineage=1/120/6/3240 project=1/120/120/12912",
	"hard-shat/42/0":      "lineage=1/120/6/3240 project=1/120/120/12912",
	"hard-shat/42/8":      "lineage=1/120/6/3240 project=1/120/120/12912",
	"hard-shat/7/0":       "lineage=1/120/6/3240 project=1/120/120/12912",
	"hard-shat/7/8":       "lineage=1/120/6/3240 project=1/120/120/12912",
	"join/1/0":            "join=1/6/2/312 lineage=1/8/4/432 project=1/8/8/800",
	"join/1/8":            "join=1/6/2/312 lineage=1/8/4/432 project=1/8/8/800",
	"join/42/0":           "join=1/6/2/312 lineage=1/8/4/432 project=1/8/8/800",
	"join/42/8":           "join=1/6/2/312 lineage=1/8/4/432 project=1/8/8/800",
	"join/7/0":            "join=1/6/2/312 lineage=1/8/4/432 project=1/8/8/800",
	"join/7/8":            "join=1/6/2/312 lineage=1/8/4/432 project=1/8/8/800",
	"nested-shat/1/0":     "lineage=2/12/8/768 project=3/16/16/1536",
	"nested-shat/1/8":     "lineage=2/12/8/768 project=3/16/16/1536",
	"nested-shat/42/0":    "lineage=2/12/8/768 project=3/16/16/1536",
	"nested-shat/42/8":    "lineage=2/12/8/768 project=3/16/16/1536",
	"nested-shat/7/0":     "lineage=2/12/8/768 project=3/16/16/1536",
	"nested-shat/7/8":     "lineage=2/12/8/768 project=3/16/16/1536",
	"poss/1/0":            "lineage=1/8/4/432 poss=1/4/4/240 project=1/8/8/800",
	"poss/1/8":            "lineage=1/8/4/432 poss=1/4/4/240 project=1/8/8/800",
	"poss/42/0":           "lineage=1/8/4/432 poss=1/4/4/240 project=1/8/8/800",
	"poss/42/8":           "lineage=1/8/4/432 poss=1/4/4/240 project=1/8/8/800",
	"poss/7/0":            "lineage=1/8/4/432 poss=1/4/4/240 project=1/8/8/800",
	"poss/7/8":            "lineage=1/8/4/432 poss=1/4/4/240 project=1/8/8/800",
	"select/1/0":          "lineage=1/8/4/432 project=1/8/8/800 select=1/4/2/248",
	"select/1/8":          "lineage=1/8/4/432 project=1/8/8/800 select=1/4/2/248",
	"select/42/0":         "lineage=1/8/4/432 project=1/8/8/800 select=1/4/2/248",
	"select/42/8":         "lineage=1/8/4/432 project=1/8/8/800 select=1/4/2/248",
	"select/7/0":          "lineage=1/8/4/432 project=1/8/8/800 select=1/4/2/248",
	"select/7/8":          "lineage=1/8/4/432 project=1/8/8/800 select=1/4/2/248",
}

// TestShatFixturesGolden pins the σ̂ fixtures — estimates, propagated
// bounds, singular flags, round trajectory and operator statistics — to
// the recorded fingerprints across seeds, worker counts and estimation
// paths.
func TestShatFixturesGolden(t *testing.T) {
	db, hardDB, easy, hard := shatFixtures()
	sampled := false
	run := func(db *urel.Database, name string, q algebra.Query) {
		for _, seed := range []int64{1, 7, 42} {
			for _, strata := range []int{0, 8} {
				key := fmt.Sprintf("%s/%d/%d", name, seed, strata)
				for _, workers := range []int{1, 4} {
					eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, ConfEps: 0.15, InitialRounds: 16,
						Seed: seed, Workers: workers, Strata: strata})
					res, err := eng.EvalApprox(q)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					if strata > 0 && res.Stats.EstimatorTrials > 0 {
						sampled = true
					}
					if got := shatFingerprint(res); got != shatGolden[key] {
						t.Errorf("%q: %q, // workers=%d: fingerprint differs from golden %q",
							key, got, workers, shatGolden[key])
					}
					if got := opsFingerprint(res); got != shatOpsGolden[key] {
						t.Errorf("%q: %q, // workers=%d: operator statistics differ from golden %q",
							key, got, workers, shatOpsGolden[key])
					}
				}
			}
		}
	}
	for name, q := range easy {
		run(db, name, q)
	}
	for name, q := range hard {
		run(hardDB, name, q)
	}
	if !sampled {
		t.Error("no stratified fixture sampled: the golden set does not cover the stratified path")
	}
}

// TestUnionProductOverApproxSelect covers the two ≺ rules no other test
// reaches: a tuple of a union of two σ̂ results carries the sum of both
// sides' bounds, a tuple of their product the sum of its factors', and
// either is singular when any contributor is.
func TestUnionProductOverApproxSelect(t *testing.T) {
	db := multiClauseDB(3, 0.8) // p = 0.96 per tuple
	// Enough rounds that a bound at ε = ε₀ stays well below the clamp at 1.
	opts := Options{Eps0: 0.05, Delta: 0.5, Seed: 21, InitialRounds: 4096, MaxRounds: 4096}
	eval := func(q algebra.Query) *Result {
		t.Helper()
		res, err := NewEngine(db, opts).EvalApprox(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clear := shatOverR() // threshold 0.85: outside ε₀ of p, near enough for a bound > 0
	clear.Pred = predapprox.Linear([]float64{1}, 0.85)
	tight := shatOverR() // threshold 0.93: within ε₀ of p, singular
	tight.Pred = predapprox.Linear([]float64{1}, 0.93)
	l, r := eval(clear), eval(tight)
	if l.Rel.Len() != 3 || r.Rel.Len() != 3 || singularCount(l) != 0 || singularCount(r) != 3 {
		t.Fatalf("fixture: want 3 clear and 3 singular tuples, got %d (%d singular) and %d (%d singular)",
			l.Rel.Len(), singularCount(l), r.Rel.Len(), singularCount(r))
	}

	// Equal lineage under one seed gives equal estimates, so both σ̂ emit
	// the same (ID, P1) rows and the union merges them pairwise.
	u := eval(algebra.Union{L: clear, R: tight})
	if u.Rel.Len() != 3 {
		t.Fatalf("union has %d tuples, want 3", u.Rel.Len())
	}
	for _, ut := range u.Rel.Tuples() {
		lb, rb := l.TupleError(ut.Row), r.TupleError(ut.Row)
		if lb <= 0 || rb <= 0 || lb+rb >= 1 {
			t.Fatalf("fixture: bounds %v and %v must be positive and sum below the clamp", lb, rb)
		}
		if got := u.TupleError(ut.Row); got != lb+rb {
			t.Errorf("union bound of %v = %v, want %v + %v", ut.Row, got, lb, rb)
		}
		if !u.IsSingular(ut.Row) {
			t.Errorf("union tuple %v lost the right side's singular flag", ut.Row)
		}
	}

	renamed := algebra.Project{In: tight, Targets: []expr.Target{
		expr.As("ID2", expr.A("ID")), expr.As("Q1", expr.A("P1")),
	}}
	p := eval(algebra.Product{L: clear, R: renamed})
	if p.Rel.Len() != 9 {
		t.Fatalf("product has %d tuples, want 9", p.Rel.Len())
	}
	for _, ut := range p.Rel.Tuples() {
		lb, rb := l.TupleError(ut.Row[:2]), r.TupleError(ut.Row[2:])
		if got := p.TupleError(ut.Row); got != lb+rb {
			t.Errorf("product bound of %v = %v, want %v + %v", ut.Row, got, lb, rb)
		}
		if !p.IsSingular(ut.Row) {
			t.Errorf("product tuple %v lost its right factor's singular flag", ut.Row)
		}
	}
	// The flag is an OR, not a constant: two clear factors stay clear.
	pc := eval(algebra.Product{L: clear, R: algebra.Project{In: clear, Targets: renamed.Targets}})
	if pc.Rel.Len() != 9 || singularCount(pc) != 0 {
		t.Errorf("product of clear σ̂ results: %d tuples, %d singular, want 9 and 0", pc.Rel.Len(), singularCount(pc))
	}
}

// singularCount counts r's annotated tuples flagged singular.
func singularCount(r *Result) int {
	n := 0
	for row := range r.Bounds.All() {
		if r.IsSingular(row) {
			n++
		}
	}
	return n
}
