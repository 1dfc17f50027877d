package pdb

import (
	"context"

	"repro/internal/cluster"
)

// The cluster records are declared once, in internal/cluster, where they
// are produced; the facade re-exports them.
type (
	// ClusterOptions configures horizontal sharding for an Engine: the
	// shard peer set and the failure-handling envelope.
	ClusterOptions = cluster.Config
	// ClusterError reports a failed shard interaction: which shard ("cluster"
	// when no healthy shard is left), how many attempts, and the final
	// transport or protocol error. Eval on a clustered engine returns it
	// wrapped — a typed, bounded-time failure, never a hang.
	ClusterError = cluster.Error
	// ClusterStats is a snapshot of a clustered engine's scatter-gather
	// activity.
	ClusterStats = cluster.Stats
	// ClusterShardStatus is one shard's health and traffic counters, as
	// seen from the coordinator.
	ClusterShardStatus = cluster.ShardStatus
)

// ErrNoHealthyShards is wrapped by the *ClusterError an evaluation
// returns when every shard is unavailable and LocalFallback is off.
var ErrNoHealthyShards = cluster.ErrNoHealthyShards

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
		coord, err := cluster.New(o)
		if err != nil {
			return optionErr("WithEngineCluster", o.Peers, err.Error())
		}
		e.coord = coord
		return nil
	}}
}

// ClusterStats returns per-shard coordinator statistics, or nil when the
// engine is not clustered.
func (e *Engine) ClusterStats() *ClusterStats {
	if e.coord == nil {
		return nil
	}
	cs := e.coord.Stats()
	return &cs
}

// ProbeCluster pings every shard once and sets each breaker from the
// outcome: an unreachable shard opens at once (skipped from the first
// plan, re-admitted by a background probe when it answers).
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
// fallback enabled, and whenever at least one shard's breaker is closed.
// The server's /readyz endpoint is backed by it.
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
