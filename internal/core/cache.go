package core

import (
	"container/list"
	"math/rand"
	"sync"

	"repro/internal/karpluby"
	"repro/internal/sched"
)

// Cache carries Karp–Luby estimator state across evaluations. Entries are
// keyed by lineage-content fingerprints (see content.go), which are
// identical wherever the same canonical clause set is estimated: across
// the restarts of one doubling loop, across successive EvalApprox calls on
// a long-lived engine, and across different queries that share lineage.
//
// Two reuse modes fall out of the prefix-compatible chunk plans
// (sched.Chunks):
//
//   - exact replay — the cached entry covers exactly the requested budget:
//     the snapshot IS the final count, nothing is sampled.
//   - prefix resume — the requested budget grew: the snapshot's full-chunk
//     prefix seeds the estimator and only the delta chunks are sampled.
//
// Full-size chunks enter the resumable prefix unconditionally. A budget's
// trailing partial chunk samples a strict prefix of its chunk stream;
// under a larger budget that same chunk index draws more trials from the
// same stream. Its counts are carried over together with the live PRNG
// that sampled them (karpluby.State's Partial fields): the next run
// completes the chunk by continuing the saved stream from exactly where
// it stopped, so no cached trial is ever re-sampled and the merged counts
// stay bit-identical to a from-scratch run.
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
// estimation batch completes, read during plan construction, and — when
// owned by a long-lived engine — shared by any number of concurrent
// evaluations.
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

// cacheEntry is one task's cached estimation state.
type cacheEntry struct {
	key       cacheKey
	clauses   int   // |F| after dedup — guard against fingerprint collisions
	chunkSize int64 // chunk plan granularity (karpluby.DefaultChunk(clauses))
	seed      int64 // engine seed the counts were sampled under

	// Full coverage of the last completed budget: hits over exactly
	// total trials.
	total int64
	hits  int64

	// Resumable prefix: counts restricted to the plan's full-size chunks
	// [0, fullChunks), i.e. the first fullChunks·chunkSize trials.
	fullChunks int
	fullHits   int64

	// Trailing partial chunk (plan index fullChunks), when the budget was
	// not chunk-aligned: its counts and the live PRNG positioned right
	// after its last sampled trial, for mid-chunk continuation.
	partialHits   int64
	partialTrials int64
	partialRNG    *rand.Rand
}

// NewCache returns an empty estimator cache holding at most maxEntries
// tasks (maxEntries <= 0 means unbounded — the per-call configuration,
// where the cache lives only as long as one doubling loop).
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

// lookup returns a resumable snapshot for the task, if one exists, along
// with how many trials of the requested budget it already covers. The
// guard fields (clause count, chunk size, seed) must match the cached
// entry exactly — a mismatch means a fingerprint collision or a different
// sampling scheme, and the cache refuses rather than corrupt the estimate.
//
// A mid-chunk tail is handed out with *ownership*: the entry's partial
// fields are cleared under the lock, because the scheduler will advance
// the returned PRNG in place. If the batch then aborts before store()
// republishes the grown state, the entry has simply degraded to its
// full-chunk prefix — still valid — rather than silently pairing stale
// partial counts with an advanced PRNG. (The normal path re-stores the
// new tail when the batch completes.)
func (c *Cache) lookup(key contentKey, clauses int, chunkSize, total, seed int64) (karpluby.State, bool) {
	c.mu.Lock()
	var st karpluby.State
	var ok bool
	if el, found := c.m[cacheKey{content: key, seed: seed}]; found {
		e := el.Value.(*cacheEntry)
		st, ok = resumeState(*e, clauses, chunkSize, total, seed)
		if st.PartialRNG != nil {
			// The tail leaves with this caller (who will advance the PRNG
			// in place); refused or tail-less lookups leave the entry —
			// and its resumable tail — untouched.
			e.partialHits, e.partialTrials, e.partialRNG = 0, 0, nil
		}
		c.lru.MoveToFront(el)
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return st, ok
}

// resumeState classifies a cached entry against a requested budget.
func resumeState(e cacheEntry, clauses int, chunkSize, total, seed int64) (karpluby.State, bool) {
	if e.clauses != clauses || e.chunkSize != chunkSize || e.seed != seed {
		return karpluby.State{}, false
	}
	if e.total == total {
		// Exact replay: the identical budget was already spent under the
		// identical seeds. Trials == total tells the caller nothing is
		// left to sample; the cursor still marks only the full-chunk
		// boundary, and the partial fields stay unset — there is no chunk
		// left to continue.
		return karpluby.State{Hits: e.hits, Trials: e.total, Chunks: e.fullChunks}, true
	}
	covered := int64(e.fullChunks) * chunkSize
	if covered+e.partialTrials > total {
		// The cached budget overlaps the requested plan's trailing partial
		// chunk beyond its end (the cached budget is larger and not
		// chunk-aligned against the request): a bit-identical resume is
		// impossible without per-chunk counts; refuse rather than
		// mis-resume.
		return karpluby.State{}, false
	}
	if e.fullChunks == 0 && e.partialRNG == nil {
		return karpluby.State{}, false
	}
	st := karpluby.State{Hits: e.fullHits, Trials: covered, Chunks: e.fullChunks}
	if e.partialRNG != nil {
		// Mid-chunk continuation: the partial chunk's counts join the
		// resumed totals, and the saved PRNG lets the scheduler complete
		// that chunk's stream instead of re-sampling its prefix.
		st.Hits += e.partialHits
		st.Trials += e.partialTrials
		st.PartialHits = e.partialHits
		st.PartialTrials = e.partialTrials
		st.PartialRNG = e.partialRNG
	}
	return st, true
}

// store publishes a task's state after its budget completed. partialHits
// and partialTrials are the counts contributed by the budget's trailing
// partial chunk (zero when the budget is chunk-aligned) and partialRNG is
// the PRNG that sampled it, positioned right after its last trial;
// subtracting the partial counts yields the full-chunk prefix, and the
// PRNG lets the next, larger budget continue the partial chunk mid-stream.
// Entries only ever grow: a stale store (smaller budget than what is
// cached) is dropped, which keeps the cache monotone even if callers
// race. (Stores under different engine seeds land in different entries —
// the seed is part of the map key.)
func (c *Cache) store(key contentKey, clauses int, chunkSize, total, hits, partialHits, partialTrials int64, partialRNG *rand.Rand, seed int64) {
	mk := cacheKey{content: key, seed: seed}
	entry := &cacheEntry{
		key:           mk,
		clauses:       clauses,
		chunkSize:     chunkSize,
		seed:          seed,
		total:         total,
		hits:          hits,
		fullChunks:    sched.FullChunks(total, chunkSize),
		fullHits:      hits - partialHits,
		partialHits:   partialHits,
		partialTrials: partialTrials,
		partialRNG:    partialRNG,
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
