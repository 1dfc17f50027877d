package sched

import (
	"context"
	"errors"
	"math/rand"
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
		total, size int64
		want        []int64
	}{
		{0, 10, nil},
		{-5, 10, nil},
		{10, 10, []int64{10}},
		{10, 0, []int64{10}},
		{25, 10, []int64{10, 10, 5}},
		{30, 10, []int64{10, 10, 10}},
		{3, 10, []int64{3}},
	}
	for _, c := range cases {
		got := Chunks(c.total, c.size)
		if len(got) != len(c.want) {
			t.Errorf("Chunks(%d,%d) = %v, want sizes %v", c.total, c.size, got, c.want)
			continue
		}
		var sum int64
		for i, ch := range got {
			if ch.Index != i {
				t.Errorf("Chunks(%d,%d)[%d].Index = %d", c.total, c.size, i, ch.Index)
			}
			if ch.N != c.want[i] {
				t.Errorf("Chunks(%d,%d)[%d].N = %d, want %d", c.total, c.size, i, ch.N, c.want[i])
			}
			sum += ch.N
		}
		if c.total > 0 && sum != c.total {
			t.Errorf("Chunks(%d,%d) covers %d trials", c.total, c.size, sum)
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

// Chunk plans of nested budgets must share their full-size prefix, and
// ChunksFrom must return exactly the suffix of the full plan — the two
// properties the resume machinery's bit-identity rests on.
func TestChunksFromIsPlanSuffix(t *testing.T) {
	cases := []struct {
		total, size int64
	}{
		{10, 3}, {12, 3}, {1, 5}, {4096, 4096}, {10000, 4096}, {3, 0},
	}
	for _, c := range cases {
		full := Chunks(c.total, c.size)
		for from := 0; from <= len(full)+1; from++ {
			got := ChunksFrom(c.total, c.size, from)
			want := full
			if from < len(full) {
				want = full[from:]
			} else {
				want = nil
			}
			if len(got) != len(want) {
				t.Fatalf("ChunksFrom(%d,%d,%d): %d chunks, want %d", c.total, c.size, from, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("ChunksFrom(%d,%d,%d)[%d] = %+v, want %+v", c.total, c.size, from, i, got[i], want[i])
				}
			}
		}
	}
	if got := ChunksFrom(10, 3, -2); len(got) != len(Chunks(10, 3)) {
		t.Errorf("negative from should yield the full plan, got %d chunks", len(got))
	}
}

func TestChunkPlanPrefixCompatibility(t *testing.T) {
	const size = 128
	small := Chunks(5*size+17, size)
	large := Chunks(9*size+3, size)
	// Every full-size chunk of the smaller plan is bit-identical (index
	// and trial count, hence derived PRNG stream) in the larger plan.
	for i := 0; i < FullChunks(5*size+17, size); i++ {
		if small[i] != large[i] {
			t.Errorf("chunk %d differs between nested plans: %+v vs %+v", i, small[i], large[i])
		}
	}
}

func TestFullAndPlanChunkCounts(t *testing.T) {
	cases := []struct {
		total, size int64
		full, plan  int
	}{
		{0, 10, 0, 0},
		{-5, 10, 0, 0},
		{9, 10, 0, 1},
		{10, 10, 1, 1},
		{11, 10, 1, 2},
		{40, 10, 4, 4},
		{41, 10, 4, 5},
		{7, 0, 1, 1}, // size<=0 collapses to one chunk
	}
	for _, c := range cases {
		if got := FullChunks(c.total, c.size); got != c.full {
			t.Errorf("FullChunks(%d,%d) = %d, want %d", c.total, c.size, got, c.full)
		}
		if got := len(Chunks(c.total, c.size)); got != c.plan {
			t.Errorf("len(Chunks(%d,%d)) = %d, want %d", c.total, c.size, got, c.plan)
		}
	}
}

func TestForEachCtxCancelStopsNewTasks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		p := New(workers)
		err := p.ForEachCtx(ctx, 1000, func(i int) error {
			if started.Add(1) == int64(workers) {
				// Cancel from inside a task: no task may start after every
				// worker observes the cancellation.
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ForEachCtx returned %v, want context.Canceled", workers, err)
		}
		// Each worker can have at most one in-flight task when the
		// cancellation lands, so the started count is bounded by 2·workers.
		if n := started.Load(); n > int64(2*workers) {
			t.Errorf("workers=%d: %d tasks started after cancellation point", workers, n)
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
