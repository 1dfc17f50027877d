package core

import "fmt"

// LimitError reports an evaluation aborted because it exceeded one of its
// per-query resource limits (Options.MaxTrials / Options.MaxMemory; the
// public pdb.LimitError). Enforcement is cooperative — between operators,
// and between estimation chunks inside the worker pool — so Used may exceed
// Limit by one chunk or one operator's output range. An aborted evaluation
// leaves engines, caches, and queries fully usable.
type LimitError struct {
	// Resource names the exhausted limit: "trials" or "memory".
	Resource string
	// Limit is the configured bound; Used is the consumption observed when
	// the limit tripped (trials sampled, or estimated bytes materialized).
	Limit int64
	Used  int64
}

// Error implements the error interface, under the public type's name.
func (e *LimitError) Error() string {
	return fmt.Sprintf("pdb: %s limit exceeded: %d > %d", e.Resource, e.Used, e.Limit)
}

// chargeTrials reserves n sampled trials against the evaluation's budget,
// returning a *LimitError once the cumulative count (across all restarts)
// would exceed Options.MaxTrials. Called by pool workers immediately
// before sampling a chunk, so enforcement latency is bounded by the
// in-flight chunks of the other workers (and by the remote executor for a
// whole wave before it is scattered).
func (run *evalRun) chargeTrials(n int64) error {
	limit := run.engine.opts.MaxTrials
	if limit <= 0 {
		return nil
	}
	if used := run.sampled.Add(n); used > limit {
		return &LimitError{Resource: "trials", Limit: limit, Used: used}
	}
	return nil
}
