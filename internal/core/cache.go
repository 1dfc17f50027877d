package core

import (
	"container/list"
	"sync"

	"repro/internal/karpluby"
	"repro/internal/sched"
)

// Cache carries Karp–Luby estimator state across evaluations. Entries are
// keyed by lineage-content fingerprints (see content.go), which are
// identical wherever the same canonical clause set is estimated: across
// the operators and walks of one evaluation, across successive EvalApprox
// calls on a long-lived engine, and across different queries that share
// lineage.
//
// An entry is a lane's counts over a prefix of its chunk plan (sched.Chunks)
// — whole chunks, then possibly one partial chunk — which seeds an
// estimator for any budget at least as large: a budget it covers samples
// nothing, a larger one only the rest. The partial chunk's continuation
// re-draws its prefix from the chunk's seed (samplePool), so the merged
// counts stay bit-identical to a from-scratch run.
//
// Entries are keyed by (content, engine seed): counts sampled under one
// seed scheme are useless to another, and clients of a shared engine may
// pick different seeds without evicting each other's snapshots. Guard
// fields (clause count, chunk size, seed) are additionally cross-checked
// on every hit: a fingerprint collision must degrade to a miss, never
// corrupt an estimate.
//
// The cache is size-bounded: with maxEntries > 0, least-recently-used
// entries are evicted once the bound is exceeded. Eviction only ever costs
// future reuse — a missing entry means sampling from scratch, which is
// always correct.
//
// A Cache is safe for concurrent use: it is written when an operator's
// estimation batch completes, read when one starts, and — when owned by a
// long-lived engine — shared by any number of concurrent evaluations.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	m          map[cacheKey]*list.Element
	lru        list.List // front = most recently used

	hits, misses, evictions int64
}

// cacheKey is the cache's map key: the lineage-content fingerprint plus
// the engine seed the counts were sampled under.
type cacheKey struct {
	content contentKey
	seed    int64
}

// cacheEntry is one lane's cached counts: hits over total trials, the
// first fullChunks·chunkSize of them in whole chunks and the rest, when
// the budget was not chunk-aligned, in the partial chunk at plan index
// fullChunks.
type cacheEntry struct {
	key       cacheKey
	clauses   int   // |F| after dedup — guard against fingerprint collisions
	chunkSize int64 // chunk plan granularity (karpluby.DefaultChunk(clauses))
	seed      int64 // engine seed the counts were sampled under

	total, hits                int64
	fullChunks                 int
	partialHits, partialTrials int64
}

// NewCache returns an empty estimator cache holding at most maxEntries
// tasks (maxEntries <= 0 means unbounded — the per-call configuration,
// where the cache lives only as long as one evaluation).
func NewCache(maxEntries int) *Cache {
	return &Cache{maxEntries: maxEntries, m: make(map[cacheKey]*list.Element)}
}

// CacheStats is a point-in-time snapshot of a cache's effectiveness.
type CacheStats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cap returns the configured entry bound (0 means unbounded). It lets
// operators alert on cache pressure: Entries at Cap with a rising
// eviction count means the working set no longer fits.
func (c *Cache) Cap() int { return c.maxEntries }

// Stats returns the cache's current statistics.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.m), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// lookup returns the snapshot cached for a lane when it resumes a budget of
// total trials. The guard fields (clause count, chunk size, seed) must
// match the cached entry exactly — a mismatch means a fingerprint
// collision or a different sampling scheme — and the entry must not end
// past total, since the counts of its chunks are not kept apart; otherwise
// the cache refuses rather than corrupt the estimate.
func (c *Cache) lookup(key contentKey, clauses int, chunkSize, total, seed int64) (karpluby.State, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.m[cacheKey{content: key, seed: seed}]
	if !found {
		c.misses++
		return karpluby.State{}, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	if e.clauses != clauses || e.chunkSize != chunkSize || e.seed != seed || e.total > total {
		c.misses++
		return karpluby.State{}, false
	}
	c.hits++
	return karpluby.State{Hits: e.hits, Trials: e.total, Chunks: e.fullChunks,
		PartialHits: e.partialHits, PartialTrials: e.partialTrials}, true
}

// store publishes a lane's counts: hits over total trials, of which
// partialHits over partialTrials fall in the trailing partial chunk (zero
// when the budget is chunk-aligned). Entries only ever grow: a stale store
// (no larger than what is cached) is dropped, which keeps the cache
// monotone even if callers race. (Stores under different engine seeds land
// in different entries — the seed is part of the map key.)
func (c *Cache) store(key contentKey, clauses int, chunkSize, total, hits, partialHits, partialTrials, seed int64) {
	mk := cacheKey{content: key, seed: seed}
	entry := &cacheEntry{
		key:           mk,
		clauses:       clauses,
		chunkSize:     chunkSize,
		seed:          seed,
		total:         total,
		hits:          hits,
		fullChunks:    sched.FullChunks(total, chunkSize),
		partialHits:   partialHits,
		partialTrials: partialTrials,
	}
	c.mu.Lock()
	if el, ok := c.m[mk]; ok {
		prev := el.Value.(*cacheEntry)
		if prev.total >= total {
			// Stale: a larger budget is already cached.
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			return
		}
		el.Value = entry
		c.lru.MoveToFront(el)
	} else {
		c.m[mk] = c.lru.PushFront(entry)
		for c.maxEntries > 0 && len(c.m) > c.maxEntries {
			back := c.lru.Back()
			delete(c.m, back.Value.(*cacheEntry).key)
			c.lru.Remove(back)
			c.evictions++
		}
	}
	c.mu.Unlock()
}

// len reports the number of cached tasks (test hook).
func (c *Cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
