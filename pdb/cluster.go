package pdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// ClusterOptions configures horizontal sharding for an Engine: the shard
// peer set and the failure-handling envelope. Estimation chunk batches
// scatter across the peers (each task's chunks round-robin over the
// healthy peers, from a hash of its lineage-content fingerprint); exact
// algebra, planning, caching, tenancy, and the HTTP surface all stay on
// the coordinator process, and shards keep no state. Results are
// bit-identical to single-node execution for any peer count under one
// seed — a property the failure machinery preserves: a chunk relaunched
// on a different shard (or sampled by the coordinator itself) replays
// the same fixed PRNG stream and contributes the same counts.
type ClusterOptions struct {
	// Peers are shard server addresses (host:port), as served by
	// `pdbserve -shard`.
	Peers []string
	// DialTimeout bounds connection establishment per attempt
	// (0 = 5s).
	DialTimeout time.Duration
	// RequestTimeout is the per-shard, per-attempt RPC deadline
	// (0 = 2m). A shard that exceeds it is retried, failed over to the
	// surviving shards, and only then reported via *ClusterError —
	// evaluations never hang on a dead shard.
	RequestTimeout time.Duration
	// Retries is how many times a failed shard RPC is retried on a fresh
	// connection before its chunk ranges fail over (default 2).
	Retries int
	// RetryBackoff is the base backoff before a retry, doubling per
	// attempt (0 = 100ms).
	RetryBackoff time.Duration

	// BreakerThreshold is how many consecutive exhausted-retry failures
	// trip a shard's circuit breaker. A tripped shard is skipped at plan
	// time — queries stop paying its timeouts — until a background probe
	// re-admits it. 0 = 3; negative disables the breaker.
	BreakerThreshold int
	// ProbeInterval is how often tripped shards are pinged for
	// re-admission (0 = 2s; negative disables background probing).
	ProbeInterval time.Duration
	// HedgeAfter enables hedged requests for stragglers: a shard RPC
	// still unanswered after this delay is duplicated to a shard its work
	// has not tried and the first complete response wins (the duplicate is discarded —
	// deterministic chunk counts make the race bit-neutral). 0 adapts
	// the delay from observed latencies (1.5 × p95); negative disables
	// hedging.
	HedgeAfter time.Duration
	// LocalFallback lets the coordinator sample chunk ranges in-process
	// when no shard is available, so evaluations degrade to single-node
	// speed instead of failing when the whole shard fleet is down.
	LocalFallback bool
}

// WithEngineCluster attaches a shard cluster to the engine: every
// evaluation's sampling work is scattered across the peers instead of the
// local worker pool. The bit-identity contract holds: a clustered
// evaluation returns exactly the bytes a single-node one would, for any
// peer count, under one seed — including runs where shards fail, recover,
// or straggle mid-query.
func WithEngineCluster(o ClusterOptions) EngineOption {
	return EngineOption{func(e *Engine) error {
		if len(o.Peers) == 0 {
			return optionErr("WithEngineCluster", o.Peers, "needs at least one peer")
		}
		coord, err := cluster.New(cluster.Config{
			Peers:            o.Peers,
			DialTimeout:      o.DialTimeout,
			RequestTimeout:   o.RequestTimeout,
			Retries:          o.Retries,
			RetryBackoff:     o.RetryBackoff,
			BreakerThreshold: o.BreakerThreshold,
			ProbeInterval:    o.ProbeInterval,
			HedgeAfter:       o.HedgeAfter,
			LocalFallback:    o.LocalFallback,
		})
		if err != nil {
			return optionErr("WithEngineCluster", o.Peers, err.Error())
		}
		e.coord = coord
		return nil
	}}
}

// ClusterError reports a failed shard interaction: which shard, how many
// attempts were made, and the final transport or protocol error. It is
// returned (wrapped) by Eval on a clustered engine when a shard stays
// unreachable past its retry budget and no failover target remains — a
// typed, bounded-time failure, never a hang. Shard is "cluster" when the
// failure is cluster-wide (no healthy shard left) rather than one peer's.
type ClusterError struct {
	// Shard is the peer address that failed ("cluster" for cluster-wide
	// failures, "local" for coordinator-local fallback failures).
	Shard string
	// Attempts is the number of RPC attempts made against it.
	Attempts int
	// Err is the final underlying error.
	Err error
}

func (e *ClusterError) Error() string {
	return fmt.Sprintf("pdb: cluster shard %s failed after %d attempt(s): %v", e.Shard, e.Attempts, e.Err)
}

// Unwrap returns the underlying transport or protocol error.
func (e *ClusterError) Unwrap() error { return e.Err }

// ErrNoHealthyShards is wrapped by the *ClusterError an evaluation
// returns when every shard is unavailable and LocalFallback is off.
var ErrNoHealthyShards = cluster.ErrNoHealthyShards

// translateClusterError rewraps the internal cluster error type into the
// public one; other errors pass through.
func translateClusterError(err error) error {
	var ce *cluster.Error
	if errors.As(err, &ce) {
		return &ClusterError{Shard: ce.Shard, Attempts: ce.Attempts, Err: ce.Err}
	}
	return err
}

// ClusterShardStatus is one shard's health and traffic counters, as seen
// from the coordinator.
type ClusterShardStatus struct {
	// Addr is the shard's address.
	Addr string
	// Healthy reports whether the shard's most recent RPC succeeded.
	Healthy bool
	// Breaker is the shard's circuit-breaker state: "closed" (admitting
	// work), "half-open" (a re-admission probe is in flight), or "open"
	// (skipped at plan time).
	Breaker string
	// RPCs, Failures, and Retries count RPC attempts against the shard,
	// RPCs that exhausted every retry, and individual retry attempts.
	RPCs     int64
	Failures int64
	Retries  int64
	// BytesSent and BytesRecv count wire traffic to and from the shard.
	BytesSent int64
	BytesRecv int64
	// LastError is the most recent RPC error message (empty when none).
	LastError string
}

// ClusterStats is a snapshot of a clustered engine's scatter-gather
// activity.
type ClusterStats struct {
	// Batches counts scatter-gather round trips.
	Batches int64
	// MergeNanos is the cumulative time spent merging gathered counts.
	MergeNanos int64
	// Failovers counts dispatches that failed or returned impossible
	// counts while owing work, relaunched on an untried shard (or locally).
	Failovers int64
	// Hedges and HedgeWins count straggler hedges issued and hedges
	// whose duplicate finished first.
	Hedges    int64
	HedgeWins int64
	// LocalFallbacks counts dispatches the coordinator sampled itself
	// because no shard was available.
	LocalFallbacks int64
	// Probes and ProbeFailures count breaker re-admission probes.
	Probes        int64
	ProbeFailures int64
	// LocalFallback reports whether coordinator-local sampling is
	// enabled.
	LocalFallback bool
	// Shards holds one entry per configured peer.
	Shards []ClusterShardStatus
}

// ClusterStats returns per-shard coordinator statistics, or nil when the
// engine is not clustered.
func (e *Engine) ClusterStats() *ClusterStats {
	if e.coord == nil {
		return nil
	}
	cs := e.coord.Stats()
	out := &ClusterStats{
		Batches:        cs.Batches,
		MergeNanos:     cs.MergeNanos,
		Failovers:      cs.Failovers,
		Hedges:         cs.Hedges,
		HedgeWins:      cs.HedgeWins,
		LocalFallbacks: cs.LocalFallbacks,
		Probes:         cs.Probes,
		ProbeFailures:  cs.ProbeFailures,
		LocalFallback:  cs.LocalFallback,
	}
	for _, s := range cs.Shards {
		out.Shards = append(out.Shards, ClusterShardStatus{
			Addr:      s.Addr,
			Healthy:   s.Healthy,
			Breaker:   s.Breaker,
			RPCs:      s.RPCs,
			Failures:  s.Failures,
			Retries:   s.Retries,
			BytesSent: s.BytesSent,
			BytesRecv: s.BytesRecv,
			LastError: s.LastError,
		})
	}
	return out
}

// ClusterBreakerStates returns each peer's numeric breaker state in peer
// order (0 closed, 1 half-open, 2 open), or nil when the engine is not
// clustered. The metrics layer exposes it as a per-shard gauge.
func (e *Engine) ClusterBreakerStates() []int {
	if e.coord == nil {
		return nil
	}
	return e.coord.BreakerStates()
}

// PingCluster round-trips every shard once, returning the first typed
// failure as a *ClusterError. It is a no-op on a non-clustered engine.
func (e *Engine) PingCluster(ctx context.Context) error {
	if e.coord == nil {
		return nil
	}
	return translateClusterError(e.coord.Ping(ctx))
}

// ProbeCluster pings every shard once and seeds the breaker state from
// the outcome: unreachable shards trip open immediately (skipped from
// the first plan, re-admitted by background probes when they return).
// It returns the healthy and total shard counts; (0, 0) on a
// non-clustered engine. pdbserve calls it at boot so a partially-dead
// peer set degrades instead of failing.
func (e *Engine) ProbeCluster(ctx context.Context) (healthy, total int) {
	if e.coord == nil {
		return 0, 0
	}
	return e.coord.Probe(ctx), len(e.ClusterStats().Shards)
}

// ClusterReady reports whether the engine can make progress on sampling
// work: true on a non-clustered engine, on a clustered engine with local
// fallback enabled, and whenever at least one shard's breaker admits
// work. The server's /readyz endpoint is backed by it.
func (e *Engine) ClusterReady() bool {
	if e.coord == nil {
		return true
	}
	cs := e.coord.Stats()
	if cs.LocalFallback {
		return true
	}
	for _, s := range cs.Shards {
		if s.Breaker != "open" {
			return true
		}
	}
	return false
}

// Close releases the engine's external resources (pooled shard
// connections and the background health prober). It is a no-op on a
// non-clustered engine; an Engine without a cluster holds no goroutines
// or file handles.
func (e *Engine) Close() error {
	if e.coord == nil {
		return nil
	}
	return e.coord.Close()
}
