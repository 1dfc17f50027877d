package pdb

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/cluster"
	"repro/internal/core"
)

// Engine is a long-lived evaluation handle over one database. Unlike a
// bare Query — whose estimator state lives only for a single Eval call —
// an Engine owns a content-keyed Karp–Luby cache that persists across Eval
// calls: a repeated query resumes its sampled trials instead of re-drawing
// them, and *different* queries that share lineage content (the common
// case for repeated analytics over one uncertain database) reuse each
// other's estimation work. A repeat of the same query and options is
// bit-identical to a cold evaluation under the same seed, for any worker
// count. Across different budgets (other ε or δ, or a lineage-sharing
// query that sampled further) only flat tasks are: a WithStrata lane
// resumes whatever trials it has cached, past its budget too, so its
// estimates can differ from a cold run's (every trial is still an
// unbiased draw).
//
// The cache is bounded (least-recently-used eviction, see
// WithEngineCacheSize) and safe for concurrent use: any number of
// goroutines may Eval queries prepared on one Engine simultaneously —
// the intended shape for a network service front-end.
//
// The part of a query below its conf and σ̂ operators is a function of the
// immutable database alone: an Engine walks it once, for Eval and EvalExact
// alike, and replays it after, retaining at most the database's footprint.
// A conf directly above such a part keeps its P values there once a
// (query, seed) pair sampled nothing, and answers that pair from them after.
//
// An Engine holds no goroutines; a non-clustered Engine holds no file
// handles either, so dropping it releases everything. A clustered Engine
// (WithEngineCluster) pools shard connections — call Close to release
// them.
type Engine struct {
	db    *DB
	cache *core.Cache
	memo  *algebra.SubplanMemo
	// coord, when non-nil, scatters estimation work across shard
	// processes (see WithEngineCluster); it implements core.Distributor.
	coord *cluster.Coordinator

	inFlight atomic.Int64
	// mu guards totals, the cumulative fields of EngineStats (Stats reads
	// the cache, in-flight and cluster fields live).
	mu     sync.Mutex
	totals EngineStats
}

// defaultEngineCacheSize bounds the estimator cache of an Engine built
// without WithEngineCacheSize. An entry holds two counts, hits and trials,
// and one guard, the clause count, so the default admits substantial
// cross-query reuse while keeping the cache's footprint under a megabyte.
const defaultEngineCacheSize = 4096

// EngineOption configures an Engine at construction.
type EngineOption struct {
	apply func(*Engine) error
}

// WithEngineCacheSize bounds the engine's estimator cache to n cached
// tasks (LRU eviction beyond it). n must be positive; eviction only costs
// future reuse, never correctness. Default 4096.
func WithEngineCacheSize(n int) EngineOption {
	return EngineOption{func(e *Engine) error {
		if n <= 0 {
			return optionErr("WithEngineCacheSize", n, "cache size must be positive")
		}
		e.cache = core.NewCache(n)
		return nil
	}}
}

// Engine builds a long-lived evaluation handle whose estimator cache
// persists across Eval calls. Queries prepared through Engine.Prepare are
// bound to it; queries prepared directly on the DB keep the per-call
// cache.
func (db *DB) Engine(opts ...EngineOption) (*Engine, error) {
	e := &Engine{db: db, cache: core.NewCache(defaultEngineCacheSize), memo: algebra.NewSubplanMemo(db.udb)}
	for _, opt := range opts {
		if opt.apply == nil {
			continue
		}
		if err := opt.apply(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// DB returns the engine's database.
func (e *Engine) DB() *DB { return e.db }

// Prepare parses and validates a UA program like DB.Prepare, binding the
// resulting query to the engine: its Eval calls resume estimator state
// from — and publish state to — the engine's cache.
func (e *Engine) Prepare(src string) (*Query, error) {
	q, err := e.db.Prepare(src)
	if err != nil {
		return nil, err
	}
	q.eng = e
	return q, nil
}

// EngineStats is a point-in-time snapshot of an engine's cumulative work
// and the effectiveness of its cross-query estimator cache. The JSON names
// are the "engine" section of GET /v1/stats (docs/API.md).
type EngineStats struct {
	// Evals counts completed approximate evaluations (failed or cancelled
	// evaluations are not counted).
	Evals int64 `json:"evals"`
	// InFlight is the number of evaluations running on the engine right
	// now (admitted but not yet completed, failed, or cancelled).
	InFlight int64 `json:"in_flight"`
	// SampledTrials and ReusedTrials aggregate the per-evaluation
	// Stats.SampledTrials / Stats.ReusedTrials over all completed
	// evaluations: reused trials were served from the engine cache
	// instead of being re-sampled.
	SampledTrials int64 `json:"sampled_trials"`
	ReusedTrials  int64 `json:"reused_trials"`
	// CacheHits counts estimation tasks (across all evaluations) that
	// resumed from a cached snapshot.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses / CacheEntries / CacheEvictions describe the engine
	// cache itself; CacheCapacity is its configured entry bound (entries
	// pinned at capacity with rising evictions means the working set no
	// longer fits).
	CacheMisses    int64 `json:"cache_misses"`
	CacheEntries   int   `json:"cache_entries"`
	CacheCapacity  int   `json:"cache_capacity"`
	CacheEvictions int64 `json:"cache_evictions"`
	// LimitTrips counts evaluations aborted by a per-query resource limit
	// (WithMaxTrials / WithMaxMemory) — the service's 422/overload signal.
	LimitTrips int64 `json:"limit_trips"`
	// EarlyStops aggregates Stats.EarlyStops over completed evaluations:
	// stratified estimation tasks settled before their full trial budget
	// by empirical-Bernstein convergence.
	EarlyStops int64 `json:"early_stops"`
	// ExactFactored aggregates Stats.ExactFactored: independent lineage
	// subformulas the factoring pre-pass computed exactly instead of
	// sampling.
	ExactFactored int64 `json:"exact_factored"`
	// MemoEntries and MemoBytes are the sub-plan memo's stored sub-plans and
	// the bytes they retain (kept conf P values included), bounded by the
	// database's footprint; MemoHits counts sub-plans and conf results it
	// answered, MemoEvictions the entries its LRU bound dropped.
	MemoEntries   int   `json:"memo_entries"`
	MemoBytes     int64 `json:"memo_bytes"`
	MemoHits      int64 `json:"memo_hits"`
	MemoEvictions int64 `json:"memo_evictions"`
	// Cluster holds per-shard scatter-gather statistics on a clustered
	// engine (WithEngineCluster); nil on a single-node engine.
	Cluster *ClusterStats `json:"-"`
}

// Stats returns the engine's cumulative statistics. Safe to call
// concurrently with evaluations.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	st := e.totals
	e.mu.Unlock()
	cs := e.cache.Stats()
	st.CacheMisses, st.CacheEntries, st.CacheCapacity, st.CacheEvictions = cs.Misses, cs.Entries, e.cache.Cap(), cs.Evictions
	st.MemoEntries, st.MemoBytes, st.MemoHits, st.MemoEvictions = e.memo.Stats()
	st.InFlight = e.inFlight.Load()
	st.Cluster = e.ClusterStats()
	return st
}

// record folds one completed evaluation's statistics into the engine's
// cumulative counters.
func (e *Engine) record(s Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.totals.Evals++
	e.totals.SampledTrials += s.SampledTrials
	e.totals.ReusedTrials += s.ReusedTrials
	e.totals.CacheHits += s.CacheHits
	e.totals.EarlyStops += s.EarlyStops
	e.totals.ExactFactored += s.ExactFactored
}

// beginEval marks an evaluation in flight on the engine; the returned
// function ends it. Stats().InFlight is the live gauge a service exports.
func (e *Engine) beginEval() func() {
	e.inFlight.Add(1)
	return func() { e.inFlight.Add(-1) }
}

// recordFailure classifies a failed evaluation (currently: count limit
// aborts, the signal admission control and alerting key on).
func (e *Engine) recordFailure(err error) {
	var le *LimitError
	if errors.As(err, &le) {
		e.mu.Lock()
		e.totals.LimitTrips++
		e.mu.Unlock()
	}
}
