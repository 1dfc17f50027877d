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

// fullFingerprint hashes every deterministic output of an approximate
// evaluation: tuples in result order with float bit patterns, the complete
// error and singular maps (they may hold keys of tuples a later operator
// dropped, and the doubling loop reads those too), the trial / restart /
// decision counters, and the per-operator statistics.
func fullFingerprint(r *Result) string {
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
	for op, s := range r.Stats.Ops {
		lines = append(lines, fmt.Sprintf("op %s=%+v", op, s))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	fmt.Fprintf(&b, "\ncomplete=%v trials=%d restarts=%d decisions=%d", r.Complete,
		r.Stats.EstimatorTrials, r.Stats.Restarts, r.Stats.Decisions)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
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

// shatGolden holds fullFingerprint per "fixture/seed/strata" (same
// contract and re-recording procedure as pdb's corpusGolden; last
// re-recorded with it).
var shatGolden = map[string]string{
	"cert/1/0":            "90e77fac5b7d99bf",
	"cert/1/8":            "abbc11ffa224d5f5",
	"cert/42/0":           "b0943e44f9cf33b8",
	"cert/42/8":           "abbc11ffa224d5f5",
	"cert/7/0":            "af9301a9ea7427dd",
	"cert/7/8":            "abbc11ffa224d5f5",
	"conf-over-shat/1/0":  "d9821ed385af1393",
	"conf-over-shat/1/8":  "da1cb48627716d61",
	"conf-over-shat/42/0": "0711d6a4868b0ef1",
	"conf-over-shat/42/8": "da1cb48627716d61",
	"conf-over-shat/7/0":  "3d493df5db2a5f38",
	"conf-over-shat/7/8":  "da1cb48627716d61",
	"diff/1/0":            "40ea112b7deafdd3",
	"diff/1/8":            "116df607bd191aff",
	"diff/42/0":           "4dbca10f82739341",
	"diff/42/8":           "116df607bd191aff",
	"diff/7/0":            "2c14624f619fed73",
	"diff/7/8":            "116df607bd191aff",
	"hard-conf/1/0":       "8a8131d1d13e99a9",
	"hard-conf/1/8":       "e1ba953c09ef4cc0",
	"hard-conf/42/0":      "25838a90158a5f8b",
	"hard-conf/42/8":      "cef8554bfefe4c95",
	"hard-conf/7/0":       "4dfff3a11b5f14f0",
	"hard-conf/7/8":       "8b348c2e3d75c6e9",
	"hard-shat/1/0":       "bcc139c3d6523e06",
	"hard-shat/1/8":       "aef941bd82452e50",
	"hard-shat/42/0":      "853fec49c6aeb1d8",
	"hard-shat/42/8":      "d6d8eec3e36bb951",
	"hard-shat/7/0":       "9dcaf16b5ffd8cd1",
	"hard-shat/7/8":       "3b9aec7485c5512d",
	"join/1/0":            "56f54f601e96fb35",
	"join/1/8":            "c4942e4b16e1b56d",
	"join/42/0":           "8a7df3dbcaef75d4",
	"join/42/8":           "c4942e4b16e1b56d",
	"join/7/0":            "51238b1566d1f297",
	"join/7/8":            "c4942e4b16e1b56d",
	"nested-shat/1/0":     "ebb87842e7002769",
	"nested-shat/1/8":     "ddfca3e8e22b9bc9",
	"nested-shat/42/0":    "42cac449398d3d99",
	"nested-shat/42/8":    "ddfca3e8e22b9bc9",
	"nested-shat/7/0":     "00ab50b94edeb4f3",
	"nested-shat/7/8":     "ddfca3e8e22b9bc9",
	"poss/1/0":            "f331d389c3515b2a",
	"poss/1/8":            "4141cbcf36043512",
	"poss/42/0":           "b0d78cf200799cca",
	"poss/42/8":           "4141cbcf36043512",
	"poss/7/0":            "d99b318239c1d14f",
	"poss/7/8":            "4141cbcf36043512",
	"select/1/0":          "392194abc76f00c0",
	"select/1/8":          "5ec3b2c5439d7673",
	"select/42/0":         "1930290a447f9685",
	"select/42/8":         "5ec3b2c5439d7673",
	"select/7/0":          "9a2856abe4ed25b3",
	"select/7/8":          "5ec3b2c5439d7673",
}

// TestShatFixturesGolden pins the σ̂ fixtures — estimates, propagated
// bounds, singular flags, restart trajectory and operator statistics — to
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
					if got := fullFingerprint(res); got != shatGolden[key] {
						t.Errorf("%q: %q, // workers=%d: fingerprint differs from golden %q",
							key, got, workers, shatGolden[key])
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
