package predapprox

import (
	"fmt"
	"math"
)

// Approximable is an incrementally refinable (ε,δ)-approximation of one
// value, the abstraction the algorithm of Figure 3 iterates over. A
// karpluby.Estimator is the canonical implementation; exact database
// constants are wrapped by Exact.
type Approximable interface {
	// Step runs one more round of refinement (for Karp–Luby, |F_i|
	// estimator trials, matching the inner loop of Figure 3).
	Step()
	// Estimate returns the current approximation p̂ᵢ.
	Estimate() float64
	// Delta returns the current error bound δᵢ(ε): an upper bound on
	// Pr[|pᵢ − p̂ᵢ| ≥ ε·pᵢ] given the refinement done so far.
	Delta(eps float64) float64
}

// Exact wraps a value known exactly (δᵢ ≡ 0); the paper: "exact attribute
// values from the database can be viewed as constants".
type Exact float64

// Step does nothing.
func (Exact) Step() {}

// Estimate returns the exact value.
func (e Exact) Estimate() float64 { return float64(e) }

// Delta returns 0: exact values carry no error.
func (Exact) Delta(float64) float64 { return 0 }

// Decision is the outcome of the predicate-approximation algorithm.
type Decision struct {
	// Value is the decided truth value φ(p̂₁,…,p̂_k).
	Value bool
	// ErrorBound is min(0.5, Σᵢ δᵢ(ε)), the bound the algorithm outputs.
	ErrorBound float64
	// Epsilon is the final ε = max(ε₀, ε_ψ(p̂)) used.
	Epsilon float64
	// Rounds is the number of outer-loop iterations executed.
	Rounds int
	// Estimates are the final p̂ᵢ values.
	Estimates []float64
	// HitEpsilonFloor records that the final ε was clamped at ε₀, i.e.
	// the point may be (near) an ε₀-singularity and the decision relies
	// on the non-singularity assumption of Theorem 5.8.
	HitEpsilonFloor bool
	// EarlySettled counts the approximable values the loop marked settled
	// (δᵢ(ε₀)·k ≤ δ): from the round after settling they are no longer
	// refined, since their contribution to the stopping rule is already
	// below its even share for every ε ≥ ε₀ the loop may use.
	EarlySettled int
}

// Options configures Decide.
type Options struct {
	// Eps0 is ε₀ > 0, the smallest ε the approximation goes for
	// (Section 5); points within ε₀ of a decision boundary are
	// singularities and cannot be decided reliably.
	Eps0 float64
	// Delta is the target error probability δ.
	Delta float64
	// MaxRounds caps the outer loop as a safety net; 0 means the
	// theoretical bound ⌈3·log(2k/δ)/ε₀²⌉ plus slack. Theorem 5.8
	// guarantees termination by then because δᵢ(max(ε₀, ·)) → 0.
	MaxRounds int
}

// maxRounds returns the effective round cap.
func (o Options) maxRounds(k int) int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	// l = ⌈3·log(2k/δ)/ε₀²⌉ rounds suffice: then δ'(ε₀, l) ≤ δ/k.
	l := int(math.Ceil(3 * math.Log(2*float64(k)/o.Delta) / (o.Eps0 * o.Eps0)))
	return l + 2
}

// Decide runs the predicate-approximation algorithm of Figure 3: refine
// all approximable values one batch per round, compute the margin
// ε_ψ(p̂₁,…,p̂_k) of the currently decided branch ψ ∈ {φ, ¬φ}, clamp it
// below by ε₀, and stop as soon as the combined error bound drops to δ.
//
// If (p₁,…,p_k) is not an ε₀-singularity, the returned decision is
// correct with probability ≥ 1−δ (Theorem 5.8).
func Decide(pred Pred, apx []Approximable, opts Options) (Decision, error) {
	if opts.Eps0 <= 0 || opts.Eps0 >= 1 {
		return Decision{}, fmt.Errorf("predapprox: ε₀ must be in (0,1), got %v", opts.Eps0)
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return Decision{}, fmt.Errorf("predapprox: δ must be in (0,1), got %v", opts.Delta)
	}
	k := len(apx)
	if pred.Arity() > k {
		return Decision{}, fmt.Errorf("predapprox: predicate arity %d exceeds %d approximable values", pred.Arity(), k)
	}
	est := make([]float64, k)
	maxRounds := opts.maxRounds(k)

	// settled[i] marks values whose bound can no longer dominate the
	// stopping rule: once δᵢ(ε₀) ≤ δ/k, value i's contribution stays
	// below its even share of the budget for every ε ≥ ε₀ the loop may
	// use (Delta is non-increasing in ε), so refining it further only
	// burns trials the other values need. Skipping its Step keeps the
	// loop sound — its last estimate and bound remain valid — and
	// focuses every subsequent round on the unsettled values.
	settled := make([]bool, k)
	nSettled := 0

	var d Decision
	for round := 1; ; round++ {
		for i, a := range apx {
			if !settled[i] {
				a.Step()
			}
			est[i] = a.Estimate()
		}
		// Margin already computes ε for φ when φ(p̂) holds and for ¬φ
		// otherwise (the atoms negate themselves), i.e. ε_ψ(p̂).
		margin := pred.Margin(est)
		eps := math.Max(opts.Eps0, margin)
		bound := 0.0 // the union bound Σδᵢ(ε) of Lemma 5.1
		for i, a := range apx {
			bound += a.Delta(eps)
			if !settled[i] && a.Delta(opts.Eps0)*float64(k) <= opts.Delta {
				settled[i] = true
				nSettled++
			}
		}
		d = Decision{
			Value:           pred.Eval(est),
			ErrorBound:      math.Min(0.5, bound),
			Epsilon:         eps,
			Rounds:          round,
			Estimates:       append([]float64(nil), est...),
			HitEpsilonFloor: margin < opts.Eps0,
			EarlySettled:    nSettled,
		}
		if bound <= opts.Delta {
			return d, nil
		}
		if round >= maxRounds {
			// Theoretical round bound reached: δᵢ(ε₀) ≤ δ/k must hold now
			// for Karp–Luby approximables; for custom Approximables whose
			// Delta does not shrink we stop rather than loop forever.
			return d, nil
		}
	}
}

// DecideNaive is the non-adaptive baseline sketched before Theorem 5.8:
// refine every value for the full ⌈3·log(2k/δ)/ε₀²⌉ rounds up front, then
// decide once. Used by experiment E3 to measure the speedup of Figure 3.
func DecideNaive(pred Pred, apx []Approximable, opts Options) (Decision, error) {
	if opts.Eps0 <= 0 || opts.Eps0 >= 1 {
		return Decision{}, fmt.Errorf("predapprox: ε₀ must be in (0,1), got %v", opts.Eps0)
	}
	k := len(apx)
	rounds := int(math.Ceil(3 * math.Log(2*float64(k)/opts.Delta) / (opts.Eps0 * opts.Eps0)))
	est := make([]float64, k)
	for r := 0; r < rounds; r++ {
		for _, a := range apx {
			a.Step()
		}
	}
	for i, a := range apx {
		est[i] = a.Estimate()
	}
	margin := pred.Margin(est)
	eps := math.Max(opts.Eps0, margin)
	bound := 0.0
	for _, a := range apx {
		bound += a.Delta(eps)
	}
	return Decision{
		Value:           pred.Eval(est),
		ErrorBound:      math.Min(0.5, bound),
		Epsilon:         eps,
		Rounds:          rounds,
		Estimates:       append([]float64(nil), est...),
		HitEpsilonFloor: margin < opts.Eps0,
	}, nil
}

// IsSingular conservatively decides whether p is an ε₀-singularity
// (Definition 5.6): whether some point x with |pᵢ−xᵢ| ≤ ε₀·pᵢ for all i
// disagrees with p on φ. The check relates the additive ε₀-box to the
// multiplicative margin orthotope: the box [pᵢ(1−ε₀), pᵢ(1+ε₀)] is
// contained in the orthotope [pᵢ/(1+ε), pᵢ/(1−ε)] iff ε ≥ ε₀/(1−ε₀)
// (for the lower end 1/(1+ε) ≤ 1−ε₀ also needs ε ≥ ε₀/(1−ε₀)). Since
// Margin is a sound (possibly conservative) homogeneity radius,
// Margin(p) ≥ ε₀/(1−ε₀) proves p is not an ε₀-singularity; the converse
// direction is exact for single atoms, whose Margin is exact.
func IsSingular(pred Pred, p []float64, eps0 float64) bool {
	need := eps0 / (1 - eps0)
	return pred.Margin(p) < need
}

// IsSingularBruteForce checks Definition 5.6 directly on a dense grid of
// the additive ε₀-box; the test oracle for IsSingular.
func IsSingularBruteForce(pred Pred, p []float64, eps0 float64, grid int) bool {
	want := pred.Eval(p)
	k := len(p)
	pt := make([]float64, k)
	var rec func(i int) bool // returns true if a disagreeing point exists
	rec = func(i int) bool {
		if i == k {
			return pred.Eval(pt) != want
		}
		lo, hi := p[i]*(1-eps0), p[i]*(1+eps0)
		for g := 0; g <= grid; g++ {
			pt[i] = lo + (hi-lo)*float64(g)/float64(grid)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}
