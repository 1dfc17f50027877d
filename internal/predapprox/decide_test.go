package predapprox

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dnf"
	"repro/internal/karpluby"
	"repro/internal/vars"
)

func TestDecideExactValues(t *testing.T) {
	phi := Linear([]float64{1, -1}, 0) // x₀ ≥ x₁
	d, err := Decide(phi, []Approximable{Exact(0.7), Exact(0.3)}, Options{Eps0: 0.01, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Value || d.ErrorBound != 0 || d.Rounds != 1 {
		t.Errorf("exact decision = %+v", d)
	}
	d2, err := Decide(phi, []Approximable{Exact(0.2), Exact(0.9)}, Options{Eps0: 0.01, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Value {
		t.Error("false predicate decided true")
	}
}

func TestDecideValidation(t *testing.T) {
	phi := Linear([]float64{1}, 0.5)
	if _, err := Decide(phi, []Approximable{Exact(0.7)}, Options{Eps0: 0, Delta: 0.05}); err == nil {
		t.Error("ε₀=0 must be rejected")
	}
	if _, err := Decide(phi, []Approximable{Exact(0.7)}, Options{Eps0: 0.1, Delta: 0}); err == nil {
		t.Error("δ=0 must be rejected")
	}
	if _, err := Decide(Linear([]float64{1, 1}, 0.5), []Approximable{Exact(0.7)}, Options{Eps0: 0.1, Delta: 0.1}); err == nil {
		t.Error("arity mismatch must be rejected")
	}
}

// makeEstimator builds a Karp–Luby estimator whose true confidence is
// known, for a random DNF over fresh variables in tab.
func makeEstimator(rng *rand.Rand, tab *vars.Table, nClauses int) (*karpluby.Estimator, float64) {
	base := tab.Len()
	nv := 3
	for i := 0; i < nv; i++ {
		p := 0.2 + 0.6*rng.Float64()
		tab.Add(estName(base, i), []float64{p, 1 - p}, nil)
	}
	var f dnf.F
	for c := 0; c < nClauses; c++ {
		var bs []vars.Binding
		nl := 1 + rng.Intn(2)
		for l := 0; l < nl; l++ {
			bs = append(bs, vars.Binding{Var: vars.Var(base + rng.Intn(nv)), Alt: int32(rng.Intn(2))})
		}
		if a, err := vars.NewAssignment(bs...); err == nil {
			f = append(f, a)
		}
	}
	if len(f) == 0 {
		f = dnf.F{vars.MustAssignment(vars.Binding{Var: vars.Var(base), Alt: 0})}
	}
	exact := dnf.Confidence(f, tab)
	est, err := karpluby.NewEstimator(f, tab, rng)
	if err != nil {
		panic(err)
	}
	return est, exact
}

func estName(base, i int) string {
	return "e" + string(rune('0'+base%10)) + string(rune('a'+i)) + string(rune('0'+base/10%10)) + string(rune('0'+base/100%10))
}

// Theorem 5.8: on non-singular inputs, the decision error rate is ≤ δ.
func TestDecideErrorRateWithinDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const eps0, delta = 0.05, 0.1
	runs, wrong, decided := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		tab := vars.NewTable()
		e1, p1 := makeEstimator(rng, tab, 3)
		e2, p2 := makeEstimator(rng, tab, 3)
		phi := Linear([]float64{1, -1}, 0) // p₁ ≥ p₂
		truth := phi.Eval([]float64{p1, p2})
		// Skip singular instances (true values too close to the
		// boundary); Theorem 5.8 only covers non-singular points.
		if IsSingular(phi, []float64{p1, p2}, 2*eps0) {
			continue
		}
		d, err := Decide(phi, []Approximable{e1, e2}, Options{Eps0: eps0, Delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		runs++
		decided++
		if d.Value != truth {
			wrong++
		}
	}
	if decided < 30 {
		t.Fatalf("too few non-singular instances: %d", decided)
	}
	if frac := float64(wrong) / float64(runs); frac > delta {
		t.Errorf("error rate %v exceeds δ=%v (%d/%d)", frac, delta, wrong, runs)
	}
}

// The adaptive algorithm should terminate in far fewer rounds than the
// naive bound when the margin is comfortable.
func TestDecideAdaptiveFasterThanNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tab := vars.NewTable()
	// A clause set with a confidently high probability vs a low constant:
	// wide margin, so the adaptive loop stops early.
	e1, p1 := makeEstimator(rng, tab, 4)
	if p1 < 0.3 {
		t.Skip("unlucky instance") // deterministic seed: will not happen
	}
	phi := Linear([]float64{1}, 0.05) // p₁ ≥ 0.05 — very wide margin
	opts := Options{Eps0: 0.02, Delta: 0.05}
	d, err := Decide(phi, []Approximable{e1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	naiveRounds := int(math.Ceil(3 * math.Log(2/opts.Delta) / (opts.Eps0 * opts.Eps0)))
	if d.Rounds >= naiveRounds {
		t.Errorf("adaptive used %d rounds, naive bound is %d", d.Rounds, naiveRounds)
	}
	if !d.Value {
		t.Error("decision should be true")
	}
	if d.ErrorBound > opts.Delta {
		t.Errorf("error bound %v > δ", d.ErrorBound)
	}
}

func TestDecideNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tab := vars.NewTable()
	e1, p1 := makeEstimator(rng, tab, 3)
	phi := Linear([]float64{1}, 0.5)
	opts := Options{Eps0: 0.1, Delta: 0.1}
	d, err := DecideNaive(phi, []Approximable{e1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := int(math.Ceil(3 * math.Log(2/opts.Delta) / 0.01))
	if d.Rounds != wantRounds {
		t.Errorf("naive rounds = %d, want %d", d.Rounds, wantRounds)
	}
	if !IsSingular(phi, []float64{p1}, 0.15) && d.Value != phi.Eval([]float64{p1}) {
		t.Error("naive decision wrong on comfortable instance")
	}
	if _, err := DecideNaive(phi, []Approximable{e1}, Options{Eps0: 0, Delta: 0.1}); err == nil {
		t.Error("ε₀=0 must be rejected")
	}
}

// Example 5.7: the tuple-certainty test conf = 1 can never be decided
// positively; p exactly on a boundary is an ε₀-singularity for every ε₀.
func TestCertaintyTestIsSingular(t *testing.T) {
	phi := Linear([]float64{1}, 1) // x ≥ 1
	for _, eps0 := range []float64{0.001, 0.01, 0.1} {
		if !IsSingular(phi, []float64{1}, eps0) {
			t.Errorf("p=1 must be an ε₀=%v singularity for conf=1", eps0)
		}
	}
	// But p = 0.9 is detectably below 1 for small ε₀.
	if IsSingular(phi, []float64{0.9}, 0.01) {
		t.Error("p=0.9 should not be a 0.01-singularity for x ≥ 1")
	}
}

func TestIsSingularMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(2)
		coef := make([]float64, k)
		for i := range coef {
			coef[i] = rng.Float64()*4 - 2
		}
		phi := Linear(coef, rng.Float64()-0.5)
		p := make([]float64, k)
		for i := range p {
			p[i] = 0.1 + 0.8*rng.Float64()
		}
		eps0 := 0.02 + 0.1*rng.Float64()
		got := IsSingular(phi, p, eps0)
		bf := IsSingularBruteForce(phi, p, eps0, 24)
		// IsSingular is conservative: it may report singular when the
		// brute force says safe (margin box is slightly larger than the
		// additive box), but must never claim safety for a genuine
		// singularity.
		if bf && !got {
			t.Fatalf("trial %d: missed singularity (φ=%s, p=%v, ε₀=%v)", trial, phi, p, eps0)
		}
	}
}

func TestHitEpsilonFloorFlagged(t *testing.T) {
	// A point exactly on the boundary: margin 0, so the final ε is ε₀ and
	// the decision is flagged.
	phi := Linear([]float64{1}, 0.5)
	d, err := Decide(phi, []Approximable{Exact(0.5)}, Options{Eps0: 0.05, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !d.HitEpsilonFloor {
		t.Error("boundary decision must be flagged as ε₀-clamped")
	}
	// Exact values have δ≡0, so it still terminates with a zero bound.
	if d.ErrorBound != 0 {
		t.Errorf("exact bound = %v", d.ErrorBound)
	}
}

func TestDecideTerminatesAtSingularity(t *testing.T) {
	// True value exactly on the boundary: the margin never stabilizes
	// above ε₀, but the round cap guarantees termination with δᵢ(ε₀)
	// small (case 2 of the Theorem 5.8 proof).
	rng := rand.New(rand.NewSource(3))
	tab := vars.NewTable()
	tab.Add("x", []float64{0.5, 0.5}, nil)
	f := dnf.F{vars.MustAssignment(vars.Binding{Var: 0, Alt: 0})}
	est, err := karpluby.NewEstimator(f, tab, rng)
	if err != nil {
		t.Fatal(err)
	}
	phi := Linear([]float64{1}, 0.5) // p = 0.5 exactly on boundary
	d, err := Decide(phi, []Approximable{est}, Options{Eps0: 0.1, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rounds <= 0 {
		t.Error("no rounds executed")
	}
	// Single-clause estimator is exact (p̂ = M), so the margin is 0 every
	// round and ε stays clamped at ε₀.
	if !d.HitEpsilonFloor {
		t.Error("singular instance not flagged")
	}
	if d.ErrorBound > 0.05 {
		t.Errorf("bound %v should reach δ via δ(ε₀) decay", d.ErrorBound)
	}
}
