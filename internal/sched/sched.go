// Package sched is the engine's parallel-execution substrate: a fixed-size
// worker pool for CPU-bound fan-out plus the deterministic seed- and
// chunk-derivation scheme that makes parallel Monte-Carlo estimation
// reproducible regardless of worker count.
//
// The design splits every estimation lane's trials into a chunk plan that
// depends only on the task's clause count — never on the budget or the
// number of workers. Each chunk carries its own PRNG stream, seeded
// from (task seed, chunk index) alone, and chunk results are merged with
// order-independent integer sums. Workers pull chunks from a shared atomic
// cursor ("adaptive budget": fast workers take more chunks instead of
// lock-stepping), so scheduling order varies run to run while the merged
// counts are bit-identical for Workers=1 and Workers=N.
package sched

import (
	"context"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rel"
)

// Pool runs independent tasks across a fixed set of worker goroutines.
// A Pool is stateless between calls and safe for concurrent use.
type Pool struct {
	workers int
}

// New returns a pool of the given size; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// ForEach runs fn(i) for every i in [0, n), fanning the calls out across
// the pool's workers. Workers pull indices from a shared cursor, so the
// assignment of indices to workers is load-adaptive; fn must therefore not
// depend on which worker runs it. With one worker the calls run in order
// on the calling goroutine (the sequential reference path).
//
// If any call returns an error, remaining unstarted work is abandoned and
// the error with the smallest index among the calls that ran is returned.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	return p.ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: every worker checks
// ctx between tasks, so after ctx is cancelled no new task starts and the
// call returns once in-flight tasks finish — cancellation latency is
// bounded by one task, and no worker goroutine outlives the call. When the
// context is cancelled and no task failed first, ctx.Err() is returned.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = -1
		first  error
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// Chunk is a run of a lane's trials inside one chunk of its plan: trials
// [Skip, Skip+N) of the chunk at plan index Index, whose stream is seeded
// by ChunkSeed(lane seed, Index).
type Chunk struct {
	Index int   // plan index: the chunk holds the lane's trials [Index·size, (Index+1)·size)
	Skip  int64 // trials of the chunk before the run
	N     int64 // trials in the run
}

// Chunks splits a lane's trials [from, from+n) at the boundaries of its
// chunk plan, chunk c holding trials [c·size, (c+1)·size): a piece starts
// at trial from%size of chunk from/size, and only the first piece can skip
// trials, only the last end short of its chunk. The plan depends only on
// the size, never on the worker count or on how a budget was split, so a
// lane that draws [0, a) and then [a, b) draws every trial of [0, b) from
// the same chunk at the same offset — the invariant behind
// worker-count-independent, resumable results. size must be positive.
func Chunks(from, n, size int64) []Chunk {
	if n <= 0 {
		return nil
	}
	out := make([]Chunk, 0, (from%size+n+size-1)/size)
	for end := from + n; from < end; {
		c := Chunk{Index: int(from / size), Skip: from % size}
		c.N = min(size-c.Skip, end-from)
		out = append(out, c)
		from += c.N
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer (Steele et al., "Fast splittable
// pseudorandom number generators"), shared with the relational hashing
// layer (rel.Mix64 is the single implementation). It drives all seed
// derivation below; delegating keeps the derived seed streams unchanged.
func splitmix64(x uint64) uint64 { return rel.Mix64(x) }

// TaskSeedWords derives a per-task PRNG seed from a base seed
// (Options.Seed) and the task's identity — two 64-bit hash words, e.g. the
// engine's lineage-content fingerprint — by mixing the words into the base
// seed with the SplitMix64 finalizer. Equal (base, hi, lo) triples always
// yield the same stream; distinct fingerprints get decorrelated streams.
func TaskSeedWords(base int64, hi, lo uint64) int64 {
	return int64(splitmix64(uint64(base) ^ splitmix64(hi) ^ splitmix64(lo+0x9e3779b97f4a7c15)))
}

// ChunkSeed derives the PRNG seed of one chunk of a task from the task
// seed and the chunk's plan index. Because it ignores worker identity,
// a chunk samples the same stream no matter which worker executes it.
func ChunkSeed(taskSeed int64, chunk int) int64 {
	return int64(splitmix64(uint64(taskSeed) + 0x9e3779b97f4a7c15*uint64(chunk+1)))
}

// pcgSource adapts math/rand/v2's PCG generator — 16 bytes of state — to
// math/rand's Source64, so chunk streams keep the *rand.Rand type every
// sampling signature takes without paying math/rand's 607-word
// additive-lagged-Fibonacci state (≈ 4.9 KB and a seeding loop) per
// 4096-trial chunk.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }
func (s *pcgSource) Int63() int64   { return int64(s.pcg.Uint64() >> 1) }

// Seed derives both PCG state words from seed, so streams of different
// seeds differ in the low word too (streams sharing it would share the
// low half of every LCG state).
func (s *pcgSource) Seed(seed int64) {
	s.pcg.Seed(uint64(seed), splitmix64(uint64(seed)+0x9e3779b97f4a7c15))
}

// NewRand returns the PRNG for a derived seed (normally a ChunkSeed). It
// is the one constructor of chunk streams: the engine, the stratified
// driver, the cluster shards and the sequential references all call it,
// which is what keeps a chunk's stream identical wherever it is sampled.
func NewRand(seed int64) *rand.Rand {
	src := new(pcgSource)
	src.Seed(seed)
	return rand.New(src)
}
