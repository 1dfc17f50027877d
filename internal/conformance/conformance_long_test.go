//go:build conformance

package conformance

import "testing"

// Exhaustive conformance sweep (make conformance): many seeds, a tighter
// budget, and both estimation paths at several worker counts. Excluded
// from the ordinary test run by the build tag purely for time.
func TestConformanceLong(t *testing.T) {
	for name, opt := range map[string]Options{
		"flat/tight":        {Eps: 0.05, Delta: 0.05, Runs: 60},
		"stratified/tight":  {Eps: 0.05, Delta: 0.05, Runs: 60, Strata: 8},
		"stratified/wide":   {Eps: 0.2, Delta: 0.2, Runs: 60, Strata: 4},
		"stratified/par":    {Eps: 0.1, Delta: 0.1, Runs: 40, Strata: 8, Workers: 8},
		"stratified/serial": {Eps: 0.1, Delta: 0.1, Runs: 40, Strata: 8, Workers: 1},
	} {
		opt := opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(1009, opt)
			if err != nil {
				t.Fatal(err)
			}
			cov := rep.Coverage()
			t.Logf("%s: %d checks, %d violations, coverage %.4f, %d trials sampled",
				name, rep.Checks, len(rep.Violations), cov, rep.Sampled)
			// The re-walk share the kill criterion of Figure 3 per σ̂ reads.
			shat := 0
			for _, c := range Corpus(0) {
				if c.Oracle != nil {
					shat += opt.Runs
				}
			}
			t.Logf("%s: σ̂ %d of %d clear decisions wrong; %d re-walks over %d σ̂ evaluations (%.2f each)",
				name, rep.WrongDecisions, rep.Decided, rep.Rewalks, shat, float64(rep.Rewalks)/float64(shat))
			if cov < 1-opt.Delta {
				t.Errorf("empirical coverage %.4f < 1-δ = %.4f", cov, 1-opt.Delta)
				for _, v := range rep.Violations {
					t.Logf("violation: %s", v)
				}
			}
			if rate := float64(rep.WrongDecisions) / float64(rep.Decided); rate > opt.Delta {
				t.Errorf("σ̂ decision error rate %.4f > δ = %.4f", rate, opt.Delta)
			}
		})
	}
}

// Worker counts must not change results: the parallel and serial sweeps
// above run the same seeds, so their violation sets must agree exactly.
func TestConformanceWorkerParity(t *testing.T) {
	a, err := Run(31, Options{Eps: 0.1, Delta: 0.1, Runs: 10, Strata: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(31, Options{Eps: 0.1, Delta: 0.1, Runs: 10, Strata: 8, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Checks != b.Checks || a.Sampled != b.Sampled || len(a.Violations) != len(b.Violations) {
		t.Errorf("worker count changed the sweep: 1 worker %+v, 8 workers %+v", a, b)
	}
}
