// Package karpluby implements the Karp–Luby Monte Carlo algorithm in the
// version for approximating tuple confidence given in Section 4 of the
// paper (Definition 4.1), together with the Chernoff-bound bookkeeping
// that turns it into an (ε,δ) FPRAS (Proposition 4.2).
//
// The estimator draws a clause f ∈ F with probability p_f/M (where
// M = Σ p_f), extends it to a total assignment f* over the variables of F,
// and returns 1 iff f is the smallest-index clause consistent with f*. The
// estimator is unbiased for p/M, so p̂ = X·M/m after m trials. The trial
// itself — one implementation for the flat and the stratified estimator,
// over a clause set compiled into flat arrays — is in kernel.go.
package karpluby

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/dnf"
	"repro/internal/vars"
)

// Estimator is a flat Karp–Luby confidence estimator for a single clause
// set F: a sampler over the compiled clause set (kernel.go) drawing from all
// of F. It is not safe for concurrent use; for parallel sampling, derive
// per-goroutine shards with Shard and fold their counts back with Merge.
// The engine samples through Stratified, whose one-stratum plan draws the
// same streams; Estimator is the sequential reference it is checked
// against.
type Estimator struct {
	sampler
}

// ErrEmpty is returned when the clause set has zero total weight (no
// clauses): the confidence is exactly 0 and needs no estimation.
var ErrEmpty = errors.New("karpluby: empty clause set")

// NewEstimator builds an estimator for clause set f. Duplicate clauses are
// removed first (they would bias M but not p). A clause set containing the
// empty assignment has confidence exactly 1; the estimator handles it by
// construction (single clause, always minimal).
//
// rng may be nil for an estimator used only as a merge target (a
// "template" whose trials all come from shards); calling Add on a nil-rng
// estimator panics.
func NewEstimator(f dnf.F, table *vars.Table, rng *rand.Rand) (*Estimator, error) {
	if len(f) == 0 {
		return nil, ErrEmpty
	}
	k, _ := compile(f, table, true)
	all := make([]int32, k.clauses())
	for i := range all {
		all[i] = int32(i)
	}
	d := k.newDraw(all)
	if d.m <= 0 {
		return nil, ErrEmpty
	}
	return &Estimator{sampler: newSampler(k, &d, rng)}, nil
}

// ClauseCount returns |F| after deduplication.
func (e *Estimator) ClauseCount() int { return e.k.clauses() }

// M returns the total clause weight Σ p_f.
func (e *Estimator) M() float64 { return e.d.m }

// Shard returns a fresh estimator over the same clause set that samples
// from rng. The shard shares the parent's immutable compiled clause data
// but has its own trial counters and scratch space, so shards of one
// estimator may run on separate goroutines concurrently. Fold a finished
// shard's counts back with Merge.
func (e *Estimator) Shard(rng *rand.Rand) *Estimator {
	return &Estimator{sampler: newSampler(e.k, e.d, rng)}
}

// Merge folds shard o's trial counts into e. Both estimators must be over
// the same clause set (normally o was created by e.Shard). Because the
// estimate p̂ = X·M/m and the bound δ(ε) depend only on the integer sums
// X and m, merging is exact and order-independent: any partition of m
// trials into shards yields bit-identical results. The (ε,δ) guarantee of
// Proposition 4.2 is preserved — it is a statement about m independent
// trials regardless of which PRNG stream produced each one, provided the
// shard streams are independent.
func (e *Estimator) Merge(o *Estimator) {
	if o.k.clauses() != e.k.clauses() || o.d.m != e.d.m {
		panic("karpluby: merging estimators over different clause sets")
	}
	e.hits += o.hits
	e.trials += o.trials
}

// Estimate returns the current estimate p̂ = X·M/m. With zero trials it
// returns M as a safe upper bound (p ≤ M always).
func (e *Estimator) Estimate() float64 {
	if e.trials == 0 {
		return math.Min(e.d.m, 1)
	}
	return float64(e.hits) * e.d.m / float64(e.trials)
}

// DeltaBound is the Chernoff-derived bound δ(ε) = 2·exp(−m·ε²/(3·|F|)).
func DeltaBound(eps float64, trials int64, clauses int) float64 {
	if trials == 0 {
		return 1
	}
	d := 2 * math.Exp(-float64(trials)*eps*eps/(3*float64(clauses)))
	return math.Min(d, 1)
}

// TrialsFor returns the paper's sample count m = ⌈3·|F|·log(2/δ)/ε²⌉
// that guarantees an (ε,δ) approximation.
func TrialsFor(eps, delta float64, clauses int) int64 {
	return int64(math.Ceil(3 * float64(clauses) * math.Log(2/delta) / (eps * eps)))
}
