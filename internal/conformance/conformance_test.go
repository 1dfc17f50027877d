package conformance

import "testing"

// Quick conformance sweep, part of the ordinary test run: a handful of
// seeds through the full corpus on both estimation paths. The exhaustive
// sweep lives behind the "conformance" build tag (make conformance).
func TestConformanceQuick(t *testing.T) {
	for name, opt := range map[string]Options{
		"flat":       {Eps: 0.1, Delta: 0.1, Runs: 6},
		"stratified": {Eps: 0.1, Delta: 0.1, Runs: 6, Strata: 8},
	} {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(42, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Checks == 0 {
				t.Fatal("sweep checked nothing")
			}
			if rep.Sampled == 0 {
				t.Error("no case exercised the sampling path")
			}
			if cov := rep.Coverage(); cov < 1-opt.Delta {
				t.Errorf("empirical coverage %.4f < 1-δ = %.4f over %d checks", cov, 1-opt.Delta, rep.Checks)
				for _, v := range rep.Violations {
					t.Logf("violation: %s", v)
				}
			}
			if rep.Decided == 0 {
				t.Error("no σ̂ case decided a tuple clearly")
			}
			if rate := float64(rep.WrongDecisions) / float64(rep.Decided); rate > opt.Delta {
				t.Errorf("σ̂ decided %d of %d clear tuples wrongly: %.4f > δ = %.4f",
					rep.WrongDecisions, rep.Decided, rate, opt.Delta)
			}
		})
	}
}

// The sweep must be a pure function of its seed — otherwise a reported
// offending seed could not be replayed.
func TestConformanceDeterministic(t *testing.T) {
	opt := Options{Eps: 0.1, Delta: 0.1, Runs: 2, Strata: 4}
	a, err := Run(7, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(7, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checks != b.Checks || a.Sampled != b.Sampled || len(a.Violations) != len(b.Violations) ||
		a.WrongDecisions != b.WrongDecisions || a.Rewalks != b.Rewalks {
		t.Errorf("two identical sweeps diverged: %+v vs %+v", a, b)
	}
}

// Every corpus case must have a tractable exact oracle and a non-empty
// answer; the corpus itself is deterministic per seed.
func TestCorpusShapes(t *testing.T) {
	cases := Corpus(3)
	if len(cases) < 4 {
		t.Fatalf("corpus has %d cases", len(cases))
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
	}
}
