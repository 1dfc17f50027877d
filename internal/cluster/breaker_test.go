package cluster

import (
	"context"
	"net"
	"testing"
	"time"
)

// The breaker is the live placement view: it must stop handing a dead
// peer work (availability) and start again once the peer answers
// (re-admission).

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := newBreaker(3)
	if b.state() != "closed" {
		t.Fatalf("fresh breaker %q, want closed", b.state())
	}
	b.failed()
	b.failed()
	if !b.admit() {
		t.Fatal("stopped admitting below the threshold")
	}
	b.failed()
	if b.admit() || b.state() != "open" {
		t.Fatalf("third consecutive failure left the breaker %q, want open", b.state())
	}
	b.failed() // further failures keep it open
	if b.state() != "open" {
		t.Fatal("failure while open closed the breaker")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := newBreaker(2)
	b.failed()
	b.succeeded()
	b.failed()
	if !b.admit() {
		t.Fatal("tripped after an interleaved success; the streak must reset")
	}
	b.failed()
	if b.admit() {
		t.Fatal("two consecutive failures after the reset did not trip")
	}
	// A racing successful RPC re-admits an open peer.
	b.succeeded()
	if b.state() != "closed" {
		t.Fatal("success did not close an open breaker")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(0)
	for i := 0; i < 100; i++ {
		b.failed()
	}
	b.trip()
	if !b.admit() {
		t.Fatal("disabled breaker stopped admitting")
	}
}

func TestBreakerTrip(t *testing.T) {
	b := newBreaker(3)
	b.trip()
	if b.state() != "open" {
		t.Fatal("tripped breaker admitting")
	}
	b.succeeded()
	if b.state() != "closed" {
		t.Fatal("a reply did not close a tripped breaker")
	}
}

// A probe is one ping: an unanswered one opens the breaker at once, below
// the failure threshold, and an answered one closes it.
func TestBreakerProbeCycle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShard(ShardConfig{})
	go sh.Serve(ln)
	defer sh.Close()
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone.Close()
	c, err := New(Config{Peers: []string{gone.Addr().String(), ln.Addr().String()}, DialTimeout: time.Second, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.peer[1].brk.trip()
	if healthy := c.Probe(context.Background()); healthy != 1 {
		t.Fatalf("Probe = %d healthy, want 1", healthy)
	}
	st := c.Stats()
	if st.Shards[0].Breaker != "open" || st.Shards[0].Healthy || st.Shards[1].Breaker != "closed" || !st.Shards[1].Healthy {
		t.Errorf("after probing: %+v, want the unreachable peer open and the answering one closed", st.Shards)
	}
	if st.Probes != 2 || st.ProbeFailures != 1 {
		t.Errorf("probes = %d, failures = %d; want 2 and 1", st.Probes, st.ProbeFailures)
	}
}
