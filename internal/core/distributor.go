package core

import (
	"context"

	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// A Distributor executes estimation chunk batches remotely. It is the
// seam the cluster layer plugs into: when an engine carries one, the
// estimation driver hands it every wave — one RemoteTask per lane —
// instead of sampling on the local worker pool, and validates and absorbs
// the returned integer counts exactly as it does the pool's. Because a
// chunk's PRNG stream is fixed by (task seed, plan index) and merged
// counts are commutative integer sums, results are bit-identical to local
// execution for any placement of chunks onto shards — which also licenses
// implementations to re-place chunks mid-batch (failover to a surviving
// shard, hedged duplicates, coordinator-local fallback) without changing
// a bit, as long as each chunk's counts are merged exactly once.
//
// The contract per task: for every listed chunk run, sample trials
// [Chunk.Skip, Chunk.Skip+Chunk.N) of the stream seeded by
// sched.ChunkSeed(Seed, Chunk.Index) — re-drawing and discarding its first
// Chunk.Skip trials (karpluby.SampleChunk) — over the shipped clause set
// and variable table (probabilities bit-exact, clause order preserved),
// and return the summed counts. The executor
// re-derives the deterministic karpluby.PlanStrata partition (MaxStrata
// bands; the single stratum of a flat task when MaxStrata is 0) and
// samples the Stratum-th band.
type Distributor interface {
	// SampleChunks executes every task and returns one RemoteCounts per
	// task, in task order. An error aborts the batch; implementations
	// must return typed, bounded-time errors (no hangs) and must not
	// return partial results.
	SampleChunks(ctx context.Context, tasks []RemoteTask) ([]RemoteCounts, error)
}

// RemoteTask is one typed unit of scatterable estimation work: a content
// identity, the deterministic seed its chunk streams derive from, and the
// chunk runs to sample.
type RemoteTask struct {
	// KeyHi/KeyLo are the task's lineage-content fingerprint — the same
	// 64-bit words that key the engine's estimator cache. A distributor
	// places the task's chunks by them; executors never see them.
	KeyHi, KeyLo uint64
	// Seed is the lane seed chunk streams derive from — already
	// stratum-resolved (karpluby.StratumSeed(taskSeed, Stratum)).
	Seed int64
	// ChunkSize is the lane's plan chunk size (round-aligned): no run
	// reaches past it.
	ChunkSize int64
	// MaxStrata and Stratum name the lane: the executor rebuilds
	// PlanStrata(Clauses, table, MaxStrata) and samples stratum Stratum.
	// MaxStrata == 0 is a flat task: one stratum, the whole clause set.
	MaxStrata int
	Stratum   int
	// Clauses is the canonical (content-ordered, deduplicated) clause
	// set; Vars the variable table its bindings index into. Both must
	// cross the wire bit-exact for the determinism contract to hold.
	Clauses dnf.F
	Vars    *vars.Table
	// Chunks are the chunk runs to sample (sched.Chunks of the lane's
	// trial range).
	Chunks []sched.Chunk
}

// RemoteCounts is the merged result of one RemoteTask: plain integer sums
// over every assigned chunk run, which absorb exactly into the
// coordinator's estimator.
type RemoteCounts struct {
	Hits, Trials int64
}

// SetDistributor attaches a distributor: estimation batches scatter to it
// instead of running on the local pool. Exact algebra, planning, and
// result assembly stay local. A nil distributor (the default) restores
// single-process execution.
func (e *Engine) SetDistributor(d Distributor) { e.dist = d }
