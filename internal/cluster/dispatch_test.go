package cluster

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// next is the one recovery decision. Its whole contract: admitting peers the
// unit has not tried, in peer order; then the coordinator-local sampler when
// LocalFallback is on and the trigger is a failure (never a hedge); then the
// typed ErrNoHealthyShards.
func TestNextExecutor(t *testing.T) {
	const none = -2 // the typed error
	for _, tc := range []struct {
		name          string
		open          []int // peers (of 3) whose breaker is open
		tried         []int // executors the unit already ran on
		localFallback bool
		hedge         bool
		want          int
	}{
		{name: "fresh unit takes the first peer", want: 0},
		{name: "tried peers are skipped in peer order", tried: []int{0}, want: 1},
		{name: "tried set need not be a prefix", tried: []int{1}, want: 0},
		{name: "a hedge skips tried peers too", tried: []int{0, 1}, hedge: true, want: 2},
		{name: "open breakers are skipped", open: []int{0}, want: 1},
		{name: "open and tried compose", open: []int{1}, tried: []int{0}, want: 2},
		{name: "an open breaker is skipped even if untried", open: []int{0, 1, 2}, want: none},
		{name: "every peer tried, no fallback", tried: []int{0, 1, 2}, want: none},
		{name: "every peer tried, failure falls back locally", tried: []int{0, 1, 2}, localFallback: true, want: local},
		{name: "no peer admits, failure falls back locally", open: []int{0, 1, 2}, localFallback: true, want: local},
		{name: "a hedge never goes local", tried: []int{0, 1, 2}, localFallback: true, hedge: true, want: none},
		{name: "a hedge with every breaker open goes nowhere", open: []int{0, 1, 2}, localFallback: true, hedge: true, want: none},
		{name: "local is tried once", tried: []int{0, 1, 2, local}, localFallback: true, want: none},
		{name: "peers before local", tried: []int{0, 2}, localFallback: true, want: 1},
	} {
		c, err := New(Config{
			Peers:         []string{"a:1", "b:1", "c:1"}, // never dialed
			ProbeInterval: -1,
			LocalFallback: tc.localFallback,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, pi := range tc.open {
			c.peer[pi].brk.trip()
		}
		u := &unit{tried: map[int]bool{}}
		for _, e := range tc.tried {
			u.tried[e] = true
		}
		got, err := c.next(u, tc.hedge)
		switch {
		case tc.want == none:
			var ce *Error
			if !errors.As(err, &ce) || !errors.Is(err, ErrNoHealthyShards) {
				t.Errorf("%s: next = %d, %v; want a typed *Error wrapping ErrNoHealthyShards", tc.name, got, err)
			}
		case err != nil || got != tc.want:
			t.Errorf("%s: next = %d, %v; want %d", tc.name, got, err, tc.want)
		}
		c.Close()
	}
}

// The plan spreads one task's chunks over every admitting peer, and the
// merged counts do not depend on how many peers shared the work.
func TestPlanSpreadsOneTaskOverEveryPeer(t *testing.T) {
	task := testTask(t)
	task.MaxStrata, task.Stratum, task.Chunks = 0, 0, nil // a flat task of six whole chunks
	for i := 0; i < 6; i++ {
		task.Chunks = append(task.Chunks, sched.Chunk{Index: i, N: 4096})
	}
	sample := func(n int) (core.RemoteCounts, []*Shard) {
		t.Helper()
		var shards []*Shard
		var peers []string
		for i := 0; i < n; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			sh := NewShard(ShardConfig{Workers: 1})
			go sh.Serve(ln)
			t.Cleanup(func() { sh.Close() })
			shards, peers = append(shards, sh), append(peers, ln.Addr().String())
		}
		c, err := New(Config{Peers: peers, ProbeInterval: -1, HedgeAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		counts, err := c.SampleChunks(context.Background(), []core.RemoteTask{task})
		if err != nil {
			t.Fatal(err)
		}
		return counts[0], shards
	}
	want, _ := sample(1)
	got, shards := sample(3)
	if got != want {
		t.Errorf("3 shards merged %+v, 1 shard %+v", got, want)
	}
	for i, sh := range shards {
		if n := sh.Stats().ChunksSampled; n != 2 {
			t.Errorf("shard %d sampled %d of 6 chunks, want 2", i, n)
		}
	}
}
