// Package sched is the engine's parallel-execution substrate: a fixed-size
// worker pool for CPU-bound fan-out plus the deterministic seed- and
// chunk-derivation scheme that makes parallel Monte-Carlo estimation
// reproducible regardless of worker count.
//
// The design splits every estimation task's trial budget into a chunk plan
// that depends only on the budget and the task's clause count — never on
// the number of workers. Each chunk carries its own PRNG stream, seeded
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

// Chunk is one slice of a task's trial budget.
type Chunk struct {
	Index int   // position in the task's chunk plan
	N     int64 // trials in this chunk
}

// Chunks splits a trial budget into chunks of the given size (the last
// chunk may be smaller). The plan depends only on (total, size), never on
// worker count — the invariant behind worker-count-independent results.
//
// Plans for nested budgets are prefix-compatible: chunk i covers trials
// [i·size, min((i+1)·size, total)), so every chunk that is full-size in
// the plan for a budget T is bit-for-bit the same chunk (same index, same
// trial count, hence same derived PRNG stream) in the plan for any budget
// T' ≥ T. Only the final, possibly-partial chunk differs between plans —
// the property ChunksFrom and the resume machinery build on.
func Chunks(total, size int64) []Chunk {
	return ChunksFrom(total, size, 0)
}

// ChunksFrom returns the suffix of Chunks(total, size) starting at plan
// index from: the delta chunks a resumed estimation still has to run when
// a snapshot already covers chunks [0, from). Indices are plan indices
// (the first returned chunk has Index == from), so chunk PRNG streams are
// unchanged by resumption. from ≤ 0 yields the full plan; from beyond the
// plan yields nil.
func ChunksFrom(total, size int64, from int) []Chunk {
	if total <= 0 {
		return nil
	}
	if size <= 0 {
		size = total
	}
	if from < 0 {
		from = 0
	}
	rest := (total+size-1)/size - int64(from)
	if rest < 0 {
		rest = 0
	}
	out := make([]Chunk, 0, rest)
	for off := int64(from) * size; off < total; off += size {
		n := size
		if rem := total - off; rem < n {
			n = rem
		}
		out = append(out, Chunk{Index: from + len(out), N: n})
	}
	return out
}

// FullChunks returns the number of full-size chunks in the plan for
// (total, size) — the largest prefix of the plan that is shared with the
// plan of every budget ≥ total, and therefore the chunk cursor a
// resumable snapshot of a finished budget may carry.
func FullChunks(total, size int64) int {
	if total <= 0 {
		return 0
	}
	if size <= 0 {
		return 1
	}
	return int(total / size)
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
