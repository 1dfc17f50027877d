package urel

import (
	"fmt"
	"sync/atomic"
)

// MemLimitError reports a tripped memory budget: Used is the estimated
// total that tripped it, over Limit. Evaluators that own a MemBudget
// surface it between operators (callers typically translate it into their
// own typed limit error).
type MemLimitError struct {
	Limit int64
	Used  int64
}

// Error implements the error interface.
func (e *MemLimitError) Error() string {
	return fmt.Sprintf("urel: memory limit exceeded: ~%d bytes materialized > %d", e.Used, e.Limit)
}

// MemBudget bounds the bytes an evaluation materializes, using the same
// running footprint estimate the operator statistics report (value and
// condition payloads plus per-tuple bookkeeping — an estimate of bytes
// built, cumulative across the operators that materialize them, not an
// allocator measurement or a peak-RSS bound).
//
// Enforcement is cooperative and two-layered: every operator adds its
// output's estimated footprint when it records statistics, and the
// operators with multiplicative blow-up potential (join, product)
// additionally probe the budget with their in-flight bytes, stopping
// production mid-operator once it trips. A tripped budget
// un-trips only through Release (bytes leaving memory for a spill file);
// without spilling, the evaluator turns the trip into a typed limit error
// between operators, and whatever partial output the aborted operator
// produced is discarded with the evaluation. With spilling enabled the
// limit is a high-water mark for the live set, not a hard bound — see
// Exec.WithSpill.
//
// A MemBudget is safe for concurrent use. All methods are nil-receiver
// safe, so call sites need no budget-configured check.
type MemBudget struct {
	limit int64
	used  atomic.Int64
	// over is the first total that tripped the budget — always > limit —
	// and 0 while it is not tripped; Err reports it.
	over atomic.Int64
}

// NewMemBudget returns a budget of limit estimated bytes; limit <= 0
// returns nil (no budget — every method on a nil budget is a no-op).
func NewMemBudget(limit int64) *MemBudget {
	if limit <= 0 {
		return nil
	}
	return &MemBudget{limit: limit}
}

// Add records n estimated bytes as materialized, tripping the budget when
// the running total exceeds the limit.
func (b *MemBudget) Add(n int64) {
	if b == nil {
		return
	}
	if t := b.used.Add(n); t > b.limit {
		b.over.CompareAndSwap(0, t)
	}
}

// Probe reports whether the budget is (or would be) exhausted with
// inflight additional bytes on top of the recorded total, tripping it if
// so. Operators call it with their in-flight byte counts to stop producing
// output before the overshoot is ever recorded.
func (b *MemBudget) Probe(inflight int64) bool {
	if b == nil {
		return false
	}
	if t := b.used.Load() + inflight; t > b.limit {
		b.over.CompareAndSwap(0, t)
	}
	return b.over.Load() != 0
}

// Release subtracts n estimated bytes — a spilled relation's footprint
// leaving memory — and clears the tripped flag when the total is back
// under the limit, so an evaluation that sheds enough weight to disk
// continues instead of aborting.
func (b *MemBudget) Release(n int64) {
	if b == nil {
		return
	}
	if b.used.Add(-n) <= b.limit {
		b.over.Store(0)
	}
}

// untrip clears the tripped flag unconditionally: under out-of-core
// execution (Exec.WithSpill) the budget decides residency, never aborts,
// even when one operator's working set alone exceeds the limit.
func (b *MemBudget) untrip() {
	if b != nil {
		b.over.Store(0)
	}
}

// Exceeded reports whether the budget has tripped.
func (b *MemBudget) Exceeded() bool { return b != nil && b.over.Load() != 0 }

// Err returns a *MemLimitError once the budget has tripped, nil before.
// It reports the total that tripped it (with a Probe's in-flight bytes),
// which exceeds the limit whatever Used holds when the evaluator asks.
func (b *MemBudget) Err() error {
	if !b.Exceeded() {
		return nil
	}
	return &MemLimitError{Limit: b.limit, Used: b.over.Load()}
}

// Limit returns the configured byte limit (0 for a nil budget).
func (b *MemBudget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Used returns the recorded byte total (0 for a nil budget).
func (b *MemBudget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}
