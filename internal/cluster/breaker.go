package cluster

import "sync"

// breaker is one peer's health: closed, the planner hands the peer work;
// open, the peer is skipped until a probe answers. Threshold consecutive
// exhausted-retry failures open it, and so does one failed probe. Any
// answered RPC or probe closes it, so a peer that recovers mid-batch
// re-admits itself without waiting for the prober. Health only picks which
// executor samples a chunk, never a count. Threshold <= 0 never opens.
type breaker struct {
	mu        sync.Mutex
	threshold int
	streak    int // consecutive exhausted-retry failures
	open      bool
}

func newBreaker(threshold int) *breaker {
	return &breaker{threshold: threshold}
}

// admit reports whether the planner may assign work to this peer.
func (b *breaker) admit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open
}

// state names the breaker for every readout: "closed" or "open".
func (b *breaker) state() string {
	if b.admit() {
		return "closed"
	}
	return "open"
}

// succeeded resets the failure streak and closes the breaker.
func (b *breaker) succeeded() {
	b.mu.Lock()
	b.streak = 0
	b.open = false
	b.mu.Unlock()
}

// failed counts one exhausted-retry RPC failure and opens the breaker at
// the threshold.
func (b *breaker) failed() {
	b.mu.Lock()
	b.streak++
	if b.threshold > 0 && b.streak >= b.threshold {
		b.open = true
	}
	b.mu.Unlock()
}

// trip opens the breaker at once: a probe found the peer unreachable.
func (b *breaker) trip() {
	b.mu.Lock()
	if b.threshold > 0 {
		b.open = true
	}
	b.mu.Unlock()
}
