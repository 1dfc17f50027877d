package core

import (
	"container/list"
	"sync"

	"repro/internal/karpluby"
)

// Cache carries Karp–Luby estimator state across evaluations. Entries are
// keyed by lineage-content fingerprints (see content.go), which are
// identical wherever the same canonical clause set is estimated: across
// the operators and walks of one evaluation, across successive EvalApprox
// calls on a long-lived engine, and across different queries that share
// lineage.
//
// An entry is a lane's (hits, trials): its trials are a prefix of its
// chunk stream (sched.Chunks), so the counts seed an estimator for any
// budget at least as large — a budget it covers samples nothing, a larger
// one only the rest, starting in the chunk and at the offset the trial
// count names and re-drawing that chunk's prefix from its seed
// (karpluby.SampleChunk), so the merged counts stay bit-identical to a
// from-scratch run.
//
// Entries are keyed by (content, engine seed): counts sampled under one
// seed scheme are useless to another, and clients of a shared engine may
// pick different seeds without evicting each other's snapshots. The clause
// count is additionally cross-checked on every hit — it fixes the chunk
// size too (karpluby.DefaultChunk) — so a fingerprint collision degrades
// to a miss, never a corrupt estimate.
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

// cacheEntry is one lane's cached counts, hits over trials.
type cacheEntry struct {
	key     cacheKey
	clauses int // |F| after dedup — guard against fingerprint collisions
	karpluby.StratumState
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
// total trials. The clause count must match the cached entry's — a
// mismatch means a fingerprint collision — and the entry must not end past
// total, since the counts of its trials are not kept apart; otherwise the
// cache refuses rather than corrupt the estimate.
func (c *Cache) lookup(key contentKey, clauses int, total, seed int64) (karpluby.StratumState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.m[cacheKey{content: key, seed: seed}]
	if !found {
		c.misses++
		return karpluby.StratumState{}, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	if e.clauses != clauses || e.Trials > total {
		c.misses++
		return karpluby.StratumState{}, false
	}
	c.hits++
	return e.StratumState, true
}

// store publishes a lane's counts. Entries only ever grow: a stale store
// (no larger than what is cached) is dropped, which keeps the cache
// monotone even if callers race. (Stores under different engine seeds land
// in different entries — the seed is part of the map key.)
func (c *Cache) store(key contentKey, clauses int, st karpluby.StratumState, seed int64) {
	mk := cacheKey{content: key, seed: seed}
	entry := &cacheEntry{key: mk, clauses: clauses, StratumState: st}
	c.mu.Lock()
	if el, ok := c.m[mk]; ok {
		prev := el.Value.(*cacheEntry)
		if prev.Trials >= st.Trials {
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
