package sched

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		p := New(workers)
		n := 1000
		var seen sync.Map
		var count atomic.Int64
		if err := p.ForEach(n, func(i int) error {
			if _, dup := seen.LoadOrStore(i, true); dup {
				t.Errorf("workers=%d: index %d ran twice", workers, i)
			}
			count.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := count.Load(); got != int64(n) {
			t.Errorf("workers=%d: ran %d of %d indices", workers, got, n)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := New(4).ForEach(0, func(int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := New(workers).ForEach(100, func(i int) error {
			if i == 37 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: got %v, want %v", workers, err, boom)
		}
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 || New(-3).Workers() < 1 {
		t.Error("non-positive worker counts must clamp to >= 1")
	}
	if got := New(7).Workers(); got != 7 {
		t.Errorf("Workers() = %d, want 7", got)
	}
}

func TestChunksPlan(t *testing.T) {
	cases := []struct {
		from, n, size int64
		want          []Chunk
	}{
		{0, 0, 10, nil},
		{7, -5, 10, nil},
		{0, 10, 10, []Chunk{{0, 0, 10}}},
		{0, 25, 10, []Chunk{{0, 0, 10}, {1, 0, 10}, {2, 0, 5}}},
		{0, 30, 10, []Chunk{{0, 0, 10}, {1, 0, 10}, {2, 0, 10}}},
		{0, 3, 10, []Chunk{{0, 0, 3}}},
		{3, 4, 10, []Chunk{{0, 3, 4}}},  // inside one open chunk
		{25, 5, 10, []Chunk{{2, 5, 5}}}, // closes an open chunk
		{25, 21, 10, []Chunk{{2, 5, 5}, {3, 0, 10}, {4, 0, 6}}},
		{30, 10, 10, []Chunk{{3, 0, 10}}},
	}
	for _, c := range cases {
		if got := Chunks(c.from, c.n, c.size); !slices.Equal(got, c.want) {
			t.Errorf("Chunks(%d,%d,%d) = %v, want %v", c.from, c.n, c.size, got, c.want)
		}
	}
}

// TestChunksTileRange is Chunks' contract, over every small range: the
// pieces tile [from, from+n) in order; each piece's Index and Skip are its
// first trial's chunk and offset (trial / size, trial % size) and it ends
// no later than its chunk; and splitting the range anywhere yields the
// same (Index, trial) pairs as the whole range — so a budget drawn in
// several waves draws every trial from the stream a single wave would.
func TestChunksTileRange(t *testing.T) {
	type draw struct {
		index int
		trial int64
	}
	trials := func(cs []Chunk) []draw {
		var out []draw
		for _, c := range cs {
			for i := c.Skip; i < c.Skip+c.N; i++ {
				out = append(out, draw{c.Index, i})
			}
		}
		return out
	}
	for _, size := range []int64{1, 3, 7} {
		for from := int64(0); from < 3*size; from++ {
			for n := int64(0); n < 3*size; n++ {
				whole := Chunks(from, n, size)
				next := from
				for _, c := range whole {
					if c.N <= 0 || c.Skip+c.N > size {
						t.Fatalf("Chunks(%d,%d,%d): piece %+v is empty or crosses its chunk", from, n, size, c)
					}
					if c.Index != int(next/size) || c.Skip != next%size {
						t.Fatalf("Chunks(%d,%d,%d): piece %+v at trial %d, want index %d skip %d",
							from, n, size, c, next, next/size, next%size)
					}
					next += c.N
				}
				if next != from+n {
					t.Fatalf("Chunks(%d,%d,%d) covers [%d, %d)", from, n, size, from, next)
				}
				want := trials(whole)
				for k := int64(0); k <= n; k++ {
					split := append(Chunks(from, k, size), Chunks(from+k, n-k, size)...)
					if got := trials(split); !slices.Equal(got, want) {
						t.Fatalf("Chunks(%d,%d,%d) split at %d draws %v, whole range %v", from, n, size, k, got, want)
					}
				}
			}
		}
	}
}

func TestSeedDerivationDeterministicAndDistinct(t *testing.T) {
	s := TaskSeedWords(7, 1, 2)
	if s != TaskSeedWords(7, 1, 2) {
		t.Error("TaskSeedWords is not deterministic")
	}
	if s == TaskSeedWords(7, 2, 1) || s == TaskSeedWords(7, 1, 3) {
		t.Error("TaskSeedWords collides across keys")
	}
	if s == TaskSeedWords(8, 1, 2) {
		t.Error("TaskSeedWords ignores the base seed")
	}
	if ChunkSeed(s, 0) == ChunkSeed(s, 1) {
		t.Error("ChunkSeed collides across chunk indices")
	}
	if ChunkSeed(s, 3) != ChunkSeed(s, 3) {
		t.Error("ChunkSeed is not deterministic")
	}
}

// NewRand is the one chunk-stream constructor: equal seeds replay the
// same stream, neighbouring seeds do not, uniform draws look uniform, and
// building one costs a few words — not math/rand's 5 KB lagged-Fibonacci
// state.
func TestNewRandStreams(t *testing.T) {
	a, b, c := NewRand(42), NewRand(42), NewRand(43)
	same := true
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		x := a.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", x)
		}
		if x != b.Float64() {
			t.Fatal("equal seeds diverge")
		}
		same = same && x == c.Float64()
		sum += x
	}
	if same {
		t.Error("seeds 42 and 43 give one stream")
	}
	if mean := sum / n; mean < 0.48 || mean > 0.52 {
		t.Errorf("mean of %d uniforms = %v", n, mean)
	}
	if a.Uint64() != b.Uint64() || a.Int63() != b.Int63() {
		t.Error("Uint64/Int63 diverge on equal seeds")
	}
	var keep *rand.Rand
	if allocs := testing.AllocsPerRun(100, func() { keep = NewRand(7) }); allocs > 2 {
		t.Errorf("NewRand allocates %v times, want ≤ 2", allocs)
	}
	_ = keep
}

// Chunk plans of nested budgets share every chunk the smaller one fills:
// same index and trial count, hence the same derived PRNG stream.
func TestChunkPlanPrefixCompatibility(t *testing.T) {
	const size = 128
	small := Chunks(0, 5*size+17, size)
	large := Chunks(0, 9*size+3, size)
	for i := 0; i < 5; i++ {
		if small[i] != large[i] {
			t.Errorf("chunk %d differs between nested plans: %+v vs %+v", i, small[i], large[i])
		}
	}
}

// TestForEachCtxCancelStopsNewTasks: once cancel() has returned, each
// worker starts at most the one task it claimed before it saw the
// cancellation, so at most workers tasks start after that point. Tasks
// that start before cancel() returns — while the cancelling task is
// descheduled between deciding to cancel and the call — are not counted:
// nothing the pool does can stop them.
func TestForEachCtxCancelStopsNewTasks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, late atomic.Int64
		var cancelled atomic.Bool
		p := New(workers)
		err := p.ForEachCtx(ctx, 1000, func(i int) error {
			if cancelled.Load() {
				late.Add(1)
			}
			if started.Add(1) == int64(workers) {
				// Cancel from inside a task.
				cancel()
				cancelled.Store(true)
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ForEachCtx returned %v, want context.Canceled", workers, err)
		}
		if n := late.Load(); n > int64(workers) {
			t.Errorf("workers=%d: %d tasks started after cancel() returned", workers, n)
		}
		cancel()
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := New(4).ForEachCtx(ctx, 10, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ForEachCtx = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("no task should run on a pre-cancelled context")
	}
}

func TestForEachCtxTaskErrorWinsOverCancel(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")
	err := New(4).ForEachCtx(ctx, 100, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("ForEachCtx = %v, want task error", err)
	}
}
