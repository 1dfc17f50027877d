package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// Dispatch engine. SampleChunks plans one work unit per (task, peer)
// pair, fires one RPC per involved peer, and then runs a single-threaded
// event loop over completion/hedge events. Three recovery layers stack
// under it, all bit-neutral because any executor samples a chunk's fixed
// PRNG stream identically:
//
//  1. rpc() retries with backoff on fresh connections (transient faults);
//  2. a unit whose peer exhausted its retry budget fails over — it is
//     re-dispatched to a surviving peer the unit hasn't tried yet, then
//     to the coordinator-local sampler when LocalFallback is on;
//  3. a straggling dispatch is hedged after hedgeDelay to a second peer;
//     whichever response completes first is absorbed and the loser is
//     discarded by per-unit dedupe.
//
// Every chunk is absorbed exactly once: a unit flips done on its first
// complete, validated response and every later copy is dropped.

// unit is the failover/hedge granule: one task's chunk subset as planned
// for (or re-dispatched from) one executor.
type unit struct {
	task   int
	chunks []sched.Chunk
	trials int64 // expected Σ chunk.N — response validation

	done       bool
	inflight   int          // dispatches currently carrying this unit
	tried      map[int]bool // peer indexes already attempted
	triedLocal bool
}

// dispatch is one in-flight executor call carrying one or more units.
type dispatch struct {
	peerIdx int // index into c.peer, or -1 for coordinator-local
	units   []*unit
	hedge   bool // this dispatch is a hedge duplicate
	hedged  bool // this dispatch has already been hedged
}

// outcome is a finished dispatch: counts (one per unit, in unit order)
// or a typed error.
type outcome struct {
	d      *dispatch
	counts []core.RemoteCounts
	err    error
}

// event is what the gather loop consumes: a completed dispatch or a
// hedge timer firing for a straggler.
type event struct {
	out      *outcome
	hedgeFor *dispatch
}

// SampleChunks distributes the chunk lists of tasks across the cluster
// and returns merged per-task counts, implementing core.Distributor.
// The contract holds under failure: either every chunk of every task is
// counted exactly once (possibly by a non-owner shard or the coordinator
// itself), or a typed *Error is returned in bounded time.
func (c *Coordinator) SampleChunks(ctx context.Context, tasks []core.RemoteTask) ([]core.RemoteCounts, error) {
	c.batches.Add(1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Plan: place every chunk on the ring, remapping chunks owned by
	// tripped peers onto admitting ones deterministically.
	avail := c.admitting()
	if len(avail) == 0 {
		return c.sampleAllLocal(tasks)
	}
	admits := make(map[int]bool, len(avail))
	for _, pi := range avail {
		admits[pi] = true
	}
	perPeer := make(map[int]map[int][]sched.Chunk) // peer -> task -> chunks
	for ti, t := range tasks {
		if len(t.Chunks) == 0 {
			continue
		}
		for _, ch := range t.Chunks {
			pi := c.ring.place(t.KeyHi, t.KeyLo, ch.Index)
			if !admits[pi] {
				pi = avail[pi%len(avail)]
			}
			m := perPeer[pi]
			if m == nil {
				m = map[int][]sched.Chunk{}
				perPeer[pi] = m
			}
			m[ti] = append(m[ti], ch)
		}
	}

	out := make([]core.RemoteCounts, len(tasks))
	units := make([]*unit, 0, len(tasks))
	events := make(chan event)
	batchDone := make(chan struct{})
	defer close(batchDone)
	var timers []*time.Timer
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	hedgeDelay, hedgeOK := c.hedgeDelay()

	// launch fires one dispatch asynchronously; its outcome (or the
	// batch ending first) is the only way the goroutine exits.
	launch := func(d *dispatch) {
		for _, u := range d.units {
			u.inflight++
			if d.peerIdx >= 0 {
				u.tried[d.peerIdx] = true
			} else {
				u.triedLocal = true
			}
		}
		reqTasks := make([]core.RemoteTask, len(d.units))
		for i, u := range d.units {
			rt := tasks[u.task]
			rt.Chunks = u.chunks
			reqTasks[i] = rt
		}
		if d.peerIdx < 0 {
			c.localFallbacks.Add(1)
			go func() {
				counts, err := c.sampleLocal(reqTasks)
				select {
				case events <- event{out: &outcome{d: d, counts: counts, err: err}}:
				case <-batchDone:
				}
			}()
			return
		}
		p := c.peer[d.peerIdx]
		payload := encodeSampleRequest(reqTasks)
		go func() {
			resp, err := c.rpc(ctx, p, msgSample, payload)
			var counts []core.RemoteCounts
			if err == nil {
				counts, err = decodeSampleResult(resp)
				if err == nil && len(counts) != len(d.units) {
					err = fmt.Errorf("cluster: shard returned %d results for %d tasks", len(counts), len(d.units))
				}
				if err != nil {
					err = &Error{Shard: p.addr, Attempts: 1, Err: err}
				}
			}
			select {
			case events <- event{out: &outcome{d: d, counts: counts, err: err}}:
			case <-batchDone:
			}
		}()
		if hedgeOK && !d.hedge && !d.hedged && len(c.peer) > 1 {
			d.hedged = true
			timers = append(timers, time.AfterFunc(hedgeDelay, func() {
				select {
				case events <- event{hedgeFor: d}:
				case <-batchDone:
				}
			}))
		}
	}

	// Initial dispatches: one RPC per involved peer, peers in index
	// order (determinism of the plan, not of the results, which merge
	// commutatively anyway).
	for pi := 0; pi < len(c.peer); pi++ {
		m, ok := perPeer[pi]
		if !ok {
			continue
		}
		d := &dispatch{peerIdx: pi}
		for ti := 0; ti < len(tasks); ti++ {
			chunks, ok := m[ti]
			if !ok {
				continue
			}
			u := &unit{task: ti, chunks: chunks, tried: map[int]bool{}}
			for _, ch := range chunks {
				u.trials += ch.N
			}
			units = append(units, u)
			d.units = append(d.units, u)
		}
		launch(d)
	}

	// redispatch re-scatters an orphaned unit (no copies in flight,
	// not done) after its carrier failed: next untried admitting peer,
	// then the local sampler. Returns the terminal error when the unit
	// has nowhere left to go.
	redispatch := func(u *unit, cause error) error {
		var target = -2 // -2 none, -1 local, >=0 peer
		for _, pi := range c.admitting() {
			if !u.tried[pi] {
				target = pi
				break
			}
		}
		if target == -2 && c.cfg.LocalFallback && !u.triedLocal {
			target = -1
		}
		if target == -2 {
			if cause == nil {
				cause = &Error{Shard: "cluster", Attempts: 1, Err: ErrNoHealthyShards}
			}
			return cause
		}
		launch(&dispatch{peerIdx: target, units: []*unit{u}})
		return nil
	}

	pending := len(units)
	for pending > 0 {
		var ev event
		select {
		case ev = <-events:
		case <-ctx.Done():
			return nil, &Error{Shard: "cluster", Attempts: 1, Err: ctx.Err()}
		}

		if ev.hedgeFor != nil {
			d := ev.hedgeFor
			var slow []*unit
			for _, u := range d.units {
				if !u.done {
					slow = append(slow, u)
				}
			}
			if len(slow) == 0 {
				continue
			}
			target := -1
			for _, pi := range c.admitting() {
				if pi != d.peerIdx {
					target = pi
					break
				}
			}
			if target < 0 {
				continue // nowhere to hedge to; the retry ladder still applies
			}
			c.hedges.Add(1)
			launch(&dispatch{peerIdx: target, units: slow, hedge: true})
			continue
		}

		o := ev.out
		if o.err != nil {
			// One failover per failed dispatch that still owed work —
			// whether an in-flight hedge already covers the units or
			// redispatch re-scatters them now.
			orphaned := false
			for _, u := range o.d.units {
				u.inflight--
				if u.done {
					continue
				}
				orphaned = true
				if u.inflight > 0 {
					continue // a hedge copy still carries this unit
				}
				if err := redispatch(u, o.err); err != nil {
					return nil, err
				}
			}
			if orphaned {
				c.failovers.Add(1)
			}
			continue
		}
		won := false
		start := time.Now()
		for i, u := range o.d.units {
			u.inflight--
			if u.done {
				continue // dedupe: an earlier copy already counted
			}
			rc := o.counts[i]
			if !validCounts(rc, u.trials) {
				// A malformed count must not poison the estimate;
				// treat it as that unit failing and fail over.
				mis := &Error{
					Shard:    o.d.executor(c),
					Attempts: 1,
					Err:      fmt.Errorf("shard returned impossible counts %+v for a task assigned %d trials", rc, u.trials),
				}
				c.failovers.Add(1)
				if u.inflight > 0 {
					continue
				}
				if err := redispatch(u, mis); err != nil {
					return nil, err
				}
				continue
			}
			t := &out[u.task]
			t.Hits += rc.Hits
			t.Trials += rc.Trials
			t.PartialHits += rc.PartialHits
			t.PartialTrials += rc.PartialTrials
			t.ReusedTrials += rc.ReusedTrials
			u.done = true
			pending--
			won = true
		}
		c.mergeNanos.Add(time.Since(start).Nanoseconds())
		if won && o.d.hedge {
			c.hedgeWins.Add(1)
		}
	}
	return out, nil
}

// validCounts reports whether rc can be the summed counts of chunks
// totalling trials trials. Every field crossed the wire as an unchecked
// uvarint (a value above MaxInt64 arrives negative), and core's estimators
// reject impossible counts outright, so a violating unit is never merged.
func validCounts(rc core.RemoteCounts, trials int64) bool {
	return rc.Trials == trials &&
		0 <= rc.PartialHits && rc.PartialHits <= rc.Hits && rc.Hits <= rc.Trials &&
		rc.PartialHits <= rc.PartialTrials && rc.PartialTrials <= rc.Trials &&
		0 <= rc.ReusedTrials && rc.ReusedTrials <= rc.Trials
}

// executor names a dispatch's target for error messages.
func (d *dispatch) executor(c *Coordinator) string {
	if d.peerIdx < 0 {
		return "local"
	}
	return c.peer[d.peerIdx].addr
}

// sampleAllLocal handles the no-healthy-shards plan: every task is
// sampled by the coordinator itself when LocalFallback allows it.
func (c *Coordinator) sampleAllLocal(tasks []core.RemoteTask) ([]core.RemoteCounts, error) {
	if !c.cfg.LocalFallback {
		return nil, &Error{Shard: "cluster", Attempts: 1, Err: ErrNoHealthyShards}
	}
	c.localFallbacks.Add(1)
	return c.sampleLocal(tasks)
}

// sampleLocal samples tasks on the coordinator's in-process fallback
// shard. Tasks round-trip through the wire codec first, so the
// variable-id remap — and with it every PRNG draw — is exactly what a
// real shard would have executed: the fallback is bit-identical, not
// merely approximately equal.
func (c *Coordinator) sampleLocal(tasks []core.RemoteTask) ([]core.RemoteCounts, error) {
	wt, err := decodeSampleRequest(encodeSampleRequest(tasks))
	if err != nil {
		return nil, &Error{Shard: "local", Attempts: 1, Err: err}
	}
	counts, err := c.localShard().sample(wt)
	if err != nil {
		return nil, &Error{Shard: "local", Attempts: 1, Err: err}
	}
	return counts, nil
}
