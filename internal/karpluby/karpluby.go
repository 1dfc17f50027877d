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
//
// The Estimator is incremental: Figure 3's adaptive algorithm adds batches
// of |F| trials per round and re-derives the current error bound
// δ(ε) = 2·exp(−m·ε²/(3·|F|)) after each round.
package karpluby

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/dnf"
	"repro/internal/vars"
)

// Estimator is an incremental Karp–Luby confidence estimator for a single
// clause set F: a sampler over the compiled clause set (kernel.go) drawing
// from all of F, plus the chunk-plan cursor. It is not safe for concurrent
// use; for parallel sampling, derive per-goroutine shards with Shard and
// fold their counts back with Merge.
type Estimator struct {
	sampler

	// chunks is the round-aligned chunk-plan cursor: the counts are known
	// to cover plan chunks [0, chunks) of the scheduling layer's
	// deterministic chunk plan. The estimator itself never derives it —
	// it is carried by State/Resume and advanced by the scheduler so a
	// snapshot can be extended with only the delta chunks of a larger
	// budget.
	chunks int
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
// "template" whose trials all come from shards); calling Step, Add, or
// Confidence-style sampling on a nil-rng estimator panics.
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

// State is a resumable snapshot of an estimator's trial counts. It is the
// whole mutable state of an Estimator: the clause set, weights, and PRNG
// streams are all derived deterministically elsewhere (from the clause set
// and the scheduler's seed scheme), so (Hits, Trials, Chunks) suffices to
// continue an estimation exactly where a previous — possibly smaller —
// budget left off.
//
// Chunks is the scheduler's round-aligned chunk-plan cursor: the counts
// cover at least plan chunks [0, Chunks) of the deterministic chunk plan
// for the budget that produced the snapshot. Because chunk plans for
// nested budgets share their full-size prefix, a chunk-aligned snapshot
// (Trials == Chunks·chunkSize) can seed a run at any larger budget: only
// chunks ≥ Chunks need sampling, and the merged counts are bit-identical
// to a from-scratch run.
//
// A budget that is not chunk-aligned ends in a trailing partial chunk,
// which sampled a strict prefix of the chunk stream at plan index Chunks.
// The Partial fields snapshot that chunk mid-stream: its counts
// (PartialHits over PartialTrials, both already included in Hits/Trials)
// and the live PRNG positioned exactly after trial PartialTrials of the
// chunk's stream. A resumed run completes the chunk by drawing its
// remaining trials from PartialRNG — continuing the identical stream the
// from-scratch run would sample — instead of re-sampling the chunk, so
// restart-heavy plans replay trailing partial chunks rather than re-spend
// them. A snapshot with PartialRNG nil and Trials beyond the cursor's
// coverage (the pre-snapshot format) remains valid only for exact replay
// at the producing budget.
type State struct {
	Hits   int64
	Trials int64
	Chunks int

	PartialHits   int64
	PartialTrials int64
	PartialRNG    *rand.Rand
}

// Valid reports whether the snapshot is internally consistent.
func (s State) Valid() bool {
	if s.Hits < 0 || s.Trials < s.Hits || s.Chunks < 0 {
		return false
	}
	if s.PartialTrials < 0 || s.PartialHits < 0 || s.PartialHits > s.PartialTrials {
		return false
	}
	if s.PartialTrials > 0 && s.PartialRNG == nil {
		return false
	}
	return true
}

// State returns a snapshot of the estimator's counts and chunk cursor.
// Snapshots taken after all chunks of a budget merged (see AdvanceTo) are
// resumable into any run whose chunk plan extends this one's.
func (e *Estimator) State() State {
	return State{Hits: e.hits, Trials: e.trials, Chunks: e.chunks}
}

// Resume loads a snapshot into a fresh estimator, so that subsequent
// sampling extends the snapshotted run instead of restarting it. The
// estimator must not have sampled yet (Resume replaces, not merges), the
// snapshot must be valid, and — for the bit-identity guarantee — it must
// have been produced over the same clause set under the same seed scheme;
// the latter is the caller's contract, since a State carries no clause
// identity.
func (e *Estimator) Resume(st State) error {
	if !st.Valid() {
		return errors.New("karpluby: invalid resume state")
	}
	if e.trials != 0 || e.hits != 0 {
		return errors.New("karpluby: Resume on an estimator that already sampled")
	}
	e.hits, e.trials, e.chunks = st.Hits, st.Trials, st.Chunks
	return nil
}

// AdvanceTo raises the chunk-plan cursor to chunk (a no-op when the cursor
// is already past it). The scheduling layer calls it after every plan
// chunk below the mark has merged, making the estimator's State resumable
// at that boundary.
func (e *Estimator) AdvanceTo(chunk int) {
	if chunk > e.chunks {
		e.chunks = chunk
	}
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

// Step runs |F| more trials — one round of the inner loop of the paper's
// Figure 3 algorithm. It makes Estimator satisfy the Approximable
// interface of the predapprox package.
func (e *Estimator) Step() { e.Add(e.ClauseCount()) }

// Estimate returns the current estimate p̂ = X·M/m. With zero trials it
// returns M as a safe upper bound (p ≤ M always).
func (e *Estimator) Estimate() float64 {
	if e.trials == 0 {
		return math.Min(e.d.m, 1)
	}
	return float64(e.hits) * e.d.m / float64(e.trials)
}

// Delta returns the paper's error bound for the current trial count:
// δ(ε) = 2·exp(−m·ε²/(3·|F|)), i.e. Pr[|p̂−p| ≥ ε·p] ≤ Delta(ε).
func (e *Estimator) Delta(eps float64) float64 {
	return DeltaBound(eps, e.trials, e.ClauseCount())
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

// Confidence runs the full FPRAS: it draws TrialsFor(eps, delta, |F|)
// samples and returns p̂ with Pr[|p̂−p| ≥ ε·p] ≤ δ.
func Confidence(f dnf.F, table *vars.Table, eps, delta float64, rng *rand.Rand) (float64, error) {
	if len(f) == 0 {
		return 0, nil
	}
	e, err := NewEstimator(f, table, rng)
	if err != nil {
		return 0, err
	}
	if e.k.certain() {
		return 1, nil
	}
	e.Add(int(TrialsFor(eps, delta, e.ClauseCount())))
	return e.Estimate(), nil
}
