package pdb

import (
	"fmt"

	"repro/internal/core"
)

// LimitError reports an evaluation aborted because it exceeded one of its
// per-query resource limits (WithMaxTrials / WithMaxMemory): Resource names
// the limit ("trials" or "memory"), Limit is the configured bound and Used
// the consumption observed when it tripped. Declared where it is raised.
type LimitError = core.LimitError

// OptionError reports an evaluation option that was rejected at
// construction, before any evaluation work started.
type OptionError struct {
	// Option is the name of the offending option, e.g. "WithEpsilon".
	Option string
	// Value renders the rejected value.
	Value string
	// Reason says what a valid value looks like.
	Reason string
}

// Error implements the error interface.
func (e *OptionError) Error() string {
	return fmt.Sprintf("pdb: %s(%s): %s", e.Option, e.Value, e.Reason)
}

// Option configures one evaluation. Options are validated when applied (at
// the start of Eval); invalid settings surface as a *OptionError.
type Option struct {
	apply func(*core.Options) error
}

func optionErr(option string, value any, reason string) error {
	return &OptionError{Option: option, Value: fmt.Sprint(value), Reason: reason}
}

// WithEpsilon sets ε₀, the smallest relative half-width the σ̂ predicate
// approximation aims for (points closer than ε₀ to a decision boundary are
// treated as singularities). Must lie in (0, 1). Default 0.05.
func WithEpsilon(eps float64) Option {
	return Option{func(o *core.Options) error {
		if eps <= 0 || eps >= 1 {
			return optionErr("WithEpsilon", eps, "ε₀ must be in (0,1)")
		}
		o.Eps0 = eps
		return nil
	}}
}

// WithDelta sets δ, the target per-tuple error probability: each σ̂ doubles
// its rounds until its decisions' bounds are within its share of δ, and
// the plan is walked again only while a result bound exceeds δ. Must lie
// in (0, 1). Default 0.05.
func WithDelta(delta float64) Option {
	return Option{func(o *core.Options) error {
		if delta <= 0 || delta >= 1 {
			return optionErr("WithDelta", delta, "δ must be in (0,1)")
		}
		o.Delta = delta
		return nil
	}}
}

// WithConfBudget sets the (ε, δ) accuracy of standalone conf operators
// (Corollary 4.3): the estimated probability is within relative error ε
// with probability at least 1−δ, per tuple. Both must lie in (0, 1). They
// default to the WithEpsilon / WithDelta values.
func WithConfBudget(eps, delta float64) Option {
	return Option{func(o *core.Options) error {
		if eps <= 0 || eps >= 1 {
			return optionErr("WithConfBudget", eps, "conf ε must be in (0,1)")
		}
		if delta <= 0 || delta >= 1 {
			return optionErr("WithConfBudget", delta, "conf δ must be in (0,1)")
		}
		o.ConfEps, o.ConfDelta = eps, delta
		return nil
	}}
}

// WithMaxRounds caps the round budget. Must be positive; when unset the
// engine derives the Theorem 6.7 bound l₀ from the query and database, so
// termination in polynomial time is guaranteed either way.
func WithMaxRounds(l int64) Option {
	return Option{func(o *core.Options) error {
		if l <= 0 {
			return optionErr("WithMaxRounds", l, "round cap must be positive")
		}
		o.MaxRounds = l
		return nil
	}}
}

// WithSeed seeds the engine's deterministic random source. Equal seeds
// give bit-identical results for any worker count. Default 1.
func WithSeed(seed int64) Option {
	return Option{func(o *core.Options) error {
		o.Seed = seed
		return nil
	}}
}

// WithWorkers sets the number of goroutines estimation — and, under
// exact evaluation, the confidence of each lineage group — fans out
// across; 0 selects GOMAXPROCS. The exact operators run sequentially
// whatever the value. Must not be negative. Results are independent of
// the value — it only changes wall-clock time.
func WithWorkers(n int) Option {
	return Option{func(o *core.Options) error {
		if n < 0 {
			return optionErr("WithWorkers", n, "worker count must not be negative")
		}
		o.Workers = n
		return nil
	}}
}

// WithMaxTrials caps the number of Karp–Luby trials one evaluation may
// sample, over every σ̂ round and re-walk. Exceeding
// the cap aborts the evaluation with a typed *LimitError. Must be
// positive; trials resumed from cached estimator state are free, and the
// cap does not apply to EvalExact (exact evaluation samples nothing —
// bound it with WithMaxMemory and the context deadline instead).
// Default: unlimited.
func WithMaxTrials(n int64) Option {
	return Option{func(o *core.Options) error {
		if n <= 0 {
			return optionErr("WithMaxTrials", n, "trial limit must be positive")
		}
		o.MaxTrials = n
		return nil
	}}
}

// WithMaxMemory caps the evaluation's estimated working-set growth: the
// running bytes estimate the engine keeps for materialized operator
// outputs (the same estimate Stats.Ops reports — not an allocator
// measurement). Each relation is charged once, when it is materialized; a
// σ̂'s rounds materialize nothing, so a plan is charged as EvalExact of it
// is (a re-walk starts a fresh budget). Exceeding the cap
// aborts the evaluation with a typed *LimitError; the join and product
// operators stop producing mid-operator once it trips. Applies to Eval and
// EvalExact alike. Must be positive. Default: unlimited.
func WithMaxMemory(bytes int64) Option {
	return Option{func(o *core.Options) error {
		if bytes <= 0 {
			return optionErr("WithMaxMemory", bytes, "memory limit must be positive")
		}
		o.MaxMemory = bytes
		return nil
	}}
}

// WithSpillDir enables out-of-core execution for evaluations bounded by
// WithMaxMemory: intermediate relations whose estimated footprint pushes
// the running total over the memory limit are shed to temp files under dir
// (a fresh pdb-spill-* subdirectory, removed when the evaluation returns)
// and transparently reloaded when a later operator needs them, so the
// evaluation completes instead of aborting with a *LimitError. The memory
// limit then acts as a high-water mark for the in-memory live set — any
// single operator's working set still peaks in memory. Results are
// bit-identical to an unspilled run; Stats reports the spill volume. dir
// must be non-empty ("." spills under the working directory); without
// WithMaxMemory the option has no effect.
func WithSpillDir(dir string) Option {
	return Option{func(o *core.Options) error {
		if dir == "" {
			return optionErr("WithSpillDir", dir, "spill directory must be non-empty")
		}
		o.SpillDir = dir
		return nil
	}}
}

// WithStrata enables stratified Karp–Luby estimation: each conf lineage
// is factored (independent easy subformulas computed exactly) and the
// hard residue is partitioned into at most n clause-weight strata sampled
// under Neyman allocation with empirical-Bernstein stopping. Results stay
// deterministic and worker-count independent, and typically need far
// fewer trials on skewed clause weights. n must lie in [1, 4096]; n = 1
// keeps a single stratum (factoring pre-pass only).
func WithStrata(n int) Option {
	return Option{func(o *core.Options) error {
		if n < 1 || n > 4096 {
			return optionErr("WithStrata", n, "stratum count must be in [1, 4096]")
		}
		o.Strata = n
		return nil
	}}
}

// ProgressEvent is one observation of a running evaluation, delivered to
// the WithProgress hook after every σ̂ round — the re-walks so far, the
// round's l and its cap, cumulative sampled/reused trial counts, the
// round's worst decision bound — and once more at the end, flagged Done.
type ProgressEvent = core.Progress

// WithProgress registers a hook observing the evaluation: it is called
// synchronously after every σ̂ round and at the end (flagged Done). The
// hook must be non-nil and fast, and must not call back into the query or
// database.
func WithProgress(fn func(ProgressEvent)) Option {
	return Option{func(o *core.Options) error {
		if fn == nil {
			return optionErr("WithProgress", "nil", "progress hook must be non-nil")
		}
		o.Progress = fn
		return nil
	}}
}

// defaultOptions is the baseline configuration Eval starts from.
func defaultOptions() core.Options {
	return core.Options{Eps0: 0.05, Delta: 0.05, Seed: 1}
}

// buildOptions applies opts over the defaults, returning the first
// validation error.
func buildOptions(opts []Option) (core.Options, error) {
	o := defaultOptions()
	for _, opt := range opts {
		if opt.apply == nil {
			continue
		}
		if err := opt.apply(&o); err != nil {
			return core.Options{}, err
		}
	}
	return o, nil
}
