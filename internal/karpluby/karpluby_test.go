package karpluby

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dnf"
	"repro/internal/vars"
)

func binTable(probs ...float64) *vars.Table {
	t := vars.NewTable()
	for i, p := range probs {
		t.Add("v"+string(rune('a'+i)), []float64{p, 1 - p}, nil)
	}
	return t
}

func clause(bs ...vars.Binding) vars.Assignment { return vars.MustAssignment(bs...) }

// fpras runs the full FPRAS of Proposition 4.2: TrialsFor(eps, delta, |F|)
// trials, returning p̂ with Pr[|p̂−p| ≥ ε·p] ≤ δ.
func fpras(t *testing.T, f dnf.F, tab *vars.Table, eps, delta float64, rng *rand.Rand) float64 {
	t.Helper()
	e, err := NewEstimator(f, tab, rng)
	if err != nil {
		t.Fatal(err)
	}
	e.Add(int(TrialsFor(eps, delta, e.ClauseCount())))
	return e.Estimate()
}

func TestEstimatorSingleClauseIsExact(t *testing.T) {
	// With a single clause the estimator always returns 1, so p̂ = M = p_f
	// exactly, regardless of trial count.
	tab := binTable(0.3, 0.6)
	f := dnf.F{clause(vars.Binding{Var: 0, Alt: 0}, vars.Binding{Var: 1, Alt: 0})}
	e, err := NewEstimator(f, tab, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	e.Add(100)
	want := 0.3 * 0.6
	if got := e.Estimate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Estimate = %v, want exactly %v", got, want)
	}
}

func TestEstimatorEmpty(t *testing.T) {
	tab := binTable(0.5)
	if _, err := NewEstimator(nil, tab, rand.New(rand.NewSource(1))); err != ErrEmpty {
		t.Errorf("expected ErrEmpty, got %v", err)
	}
}

// A clause set containing the empty clause collapses to it: every trial
// hits, so the estimate is exactly 1.
func TestConfidenceCertain(t *testing.T) {
	tab := binTable(0.5)
	f := dnf.F{clause(vars.Binding{Var: 0, Alt: 0}), vars.Assignment{}}
	if p := fpras(t, f, tab, 0.1, 0.1, rand.New(rand.NewSource(1))); p != 1 {
		t.Errorf("certain clause set: %v, want 1", p)
	}
}

func TestEstimatorConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		tab := vars.NewTable()
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			p := 0.1 + 0.8*rng.Float64()
			tab.Add("v"+string(rune('a'+i)), []float64{p, 1 - p}, nil)
		}
		var f dnf.F
		nc := 2 + rng.Intn(5)
		for c := 0; c < nc; c++ {
			var bs []vars.Binding
			nl := 1 + rng.Intn(3)
			for l := 0; l < nl; l++ {
				bs = append(bs, vars.Binding{Var: vars.Var(rng.Intn(n)), Alt: int32(rng.Intn(2))})
			}
			if a, err := vars.NewAssignment(bs...); err == nil {
				f = append(f, a)
			}
		}
		if len(f) == 0 {
			continue
		}
		exact := dnf.Confidence(f, tab)
		if got := fpras(t, f, tab, 0.05, 0.01, rng); math.Abs(got-exact) > 0.05*exact+1e-9 {
			t.Errorf("trial %d: estimate %v vs exact %v beyond 5%%", trial, got, exact)
		}
	}
}

// The (ε,δ) guarantee: the fraction of runs with relative error > ε must
// not exceed δ (allowing generous statistical slack since we measure the
// frequency itself).
func TestFPRASGuarantee(t *testing.T) {
	tab := binTable(0.4, 0.3, 0.7, 0.5)
	f := dnf.F{
		clause(vars.Binding{Var: 0, Alt: 0}, vars.Binding{Var: 1, Alt: 0}),
		clause(vars.Binding{Var: 1, Alt: 1}, vars.Binding{Var: 2, Alt: 0}),
		clause(vars.Binding{Var: 3, Alt: 0}),
	}
	exact := dnf.Confidence(f, tab)
	eps, delta := 0.1, 0.2
	rng := rand.New(rand.NewSource(5))
	runs, bad := 200, 0
	for i := 0; i < runs; i++ {
		if got := fpras(t, f, tab, eps, delta, rng); math.Abs(got-exact) >= eps*exact {
			bad++
		}
	}
	// Chernoff bounds are loose; the observed failure rate should be far
	// below δ. Allow up to δ itself.
	if frac := float64(bad) / float64(runs); frac > delta {
		t.Errorf("failure rate %v exceeds δ=%v", frac, delta)
	}
}

func TestEstimatorUnbiased(t *testing.T) {
	// E[X_i] = p/M: across many single trials the mean of p̂ approaches p.
	tab := binTable(0.5, 0.5)
	f := dnf.F{
		clause(vars.Binding{Var: 0, Alt: 0}),
		clause(vars.Binding{Var: 1, Alt: 0}),
	}
	exact := dnf.Confidence(f, tab) // 0.75
	rng := rand.New(rand.NewSource(9))
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		e, err := NewEstimator(f, tab, rng)
		if err != nil {
			t.Fatal(err)
		}
		e.Add(1)
		sum += e.Estimate()
	}
	mean := sum / float64(n)
	if math.Abs(mean-exact) > 0.02 {
		t.Errorf("single-trial mean %v far from exact %v (bias)", mean, exact)
	}
}

func TestDeltaBoundAndTrialsFor(t *testing.T) {
	if DeltaBound(0.1, 0, 5) != 1 {
		t.Error("zero trials must give trivial bound 1")
	}
	// TrialsFor inverts DeltaBound (up to ceiling).
	eps, delta := 0.05, 0.01
	m := TrialsFor(eps, delta, 7)
	if got := DeltaBound(eps, m, 7); got > delta+1e-12 {
		t.Errorf("DeltaBound(TrialsFor) = %v > δ=%v", got, delta)
	}
	if got := DeltaBound(eps, m-1, 7); got < delta-delta*1e-6 {
		t.Errorf("TrialsFor not tight: m-1 already gives %v < %v", got, delta)
	}
	// Monotonicity (away from the clamp-to-1 region).
	if DeltaBound(0.1, 10000, 5) <= DeltaBound(0.2, 10000, 5) {
		t.Error("larger ε must give smaller δ")
	}
	if DeltaBound(0.1, 10000, 5) >= DeltaBound(0.1, 5000, 5) {
		t.Error("more trials must give smaller δ")
	}
	// The clamp: trivial bounds never exceed 1.
	if DeltaBound(0.01, 1, 100) != 1 {
		t.Error("bound must clamp to 1")
	}
}

func TestEstimatorIncremental(t *testing.T) {
	tab := binTable(0.5, 0.5, 0.5)
	f := dnf.F{
		clause(vars.Binding{Var: 0, Alt: 0}),
		clause(vars.Binding{Var: 1, Alt: 0}),
		clause(vars.Binding{Var: 2, Alt: 0}),
	}
	e, err := NewEstimator(f, tab, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if e.Trials() != 0 {
		t.Error("fresh estimator should have 0 trials")
	}
	if e.Estimate() > 1 {
		t.Error("zero-trial estimate should be clamped to ≤ 1")
	}
	e.Add(10)
	e.Add(90)
	if e.Trials() != 100 {
		t.Errorf("Trials = %d", e.Trials())
	}
	if e.ClauseCount() != 3 {
		t.Errorf("ClauseCount = %d", e.ClauseCount())
	}
	if math.Abs(e.M()-1.5) > 1e-12 {
		t.Errorf("M = %v, want 1.5", e.M())
	}
}

func TestEstimatorDedupsClauses(t *testing.T) {
	tab := binTable(0.5)
	c := clause(vars.Binding{Var: 0, Alt: 0})
	f := dnf.F{c, c, c}
	e, err := NewEstimator(f, tab, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if e.ClauseCount() != 1 {
		t.Errorf("duplicates not removed: %d", e.ClauseCount())
	}
	e.Add(50)
	if got := e.Estimate(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Estimate = %v, want 0.5 exactly (single clause)", got)
	}
}

func TestMultiValuedVariables(t *testing.T) {
	tab := vars.NewTable()
	tab.Add("coin", []float64{2.0 / 3, 1.0 / 3}, []string{"fair", "2headed"})
	tab.Add("t1", []float64{0.5, 0.5}, nil)
	tab.Add("t2", []float64{0.5, 0.5}, nil)
	f := dnf.F{
		clause(vars.Binding{Var: 0, Alt: 0}, vars.Binding{Var: 1, Alt: 0}, vars.Binding{Var: 2, Alt: 0}),
		clause(vars.Binding{Var: 0, Alt: 1}),
	}
	exact := dnf.Confidence(f, tab) // 1/6 + 1/3 = 1/2
	if got := fpras(t, f, tab, 0.03, 0.01, rand.New(rand.NewSource(8))); math.Abs(got-exact) > 0.03*exact {
		t.Errorf("estimate %v vs exact %v", got, exact)
	}
}
