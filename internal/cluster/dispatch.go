package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/sched"
)

// Dispatch engine. A chunk's PRNG stream depends only on (lane seed, chunk
// index) and counts merge commutatively, so any executor may sample any
// chunk and a shard remembers nothing between requests. "Who samples this
// range?" is therefore answered in exactly two places:
//
//   - plan time: SampleChunks spreads each task's chunks round-robin over the
//     admitting peers from a hash of the task's content key — one work unit
//     per (task, peer), one RPC per involved peer;
//   - recovery time: a unit whose dispatch failed, lied about its counts or
//     straggles past the hedge delay is launched again on next(u).
//
// rpc() retries transient faults on fresh connections underneath; a unit
// flips done on its first complete, validated response and every later
// copy is dropped, so each chunk is counted exactly once.

// local is the coordinator's own sampler, as an executor index beside the
// peer indexes.
const local = -1

// unit is the recovery granule: one task's chunks as planned for one
// executor.
type unit struct {
	task   int
	chunks []sched.Chunk
	trials int64 // expected Σ chunk.N — response validation

	done     bool
	inflight int          // dispatches currently carrying this unit
	tried    map[int]bool // executors already attempted
}

// dispatch is one executor call carrying one or more units.
type dispatch struct {
	exec  int // index into c.peer, or local
	units []*unit
	hedge bool // a duplicate of units still in flight elsewhere
}

// event is what the gather loop consumes: dispatch d finished with counts
// (one per unit, in unit order) or a typed error — or, when straggling is
// set, is still out after the hedge delay.
type event struct {
	d          *dispatch
	straggling bool
	counts     []core.RemoteCounts
	err        error
}

// next is the one recovery decision: where a unit runs after failing on, or
// while straggling at, the executors it has tried. Admitting peers it has
// not tried, in peer order; then the coordinator itself — when LocalFallback
// is on and a dispatch failed, never to hedge a straggler.
func (c *Coordinator) next(u *unit, hedge bool) (int, error) {
	for pi, p := range c.peer {
		if !u.tried[pi] && p.brk.admit() {
			return pi, nil
		}
	}
	if !hedge && c.cfg.LocalFallback && !u.tried[local] {
		return local, nil
	}
	return 0, &Error{Shard: "cluster", Attempts: 1, Err: ErrNoHealthyShards}
}

// SampleChunks distributes the chunk lists of tasks across the cluster
// and returns merged per-task counts, implementing core.Distributor.
// The contract holds under failure: either every chunk of every task is
// counted exactly once (by whichever shard, or the coordinator itself), or
// a typed *Error is returned in bounded time.
func (c *Coordinator) SampleChunks(ctx context.Context, tasks []core.RemoteTask) ([]core.RemoteCounts, error) {
	c.batches.Add(1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Plan: chunk ci of a task goes to the (hash(key)+ci)-th admitting
	// peer, so one heavy tuple spreads over every peer. With no peer
	// admitting, the units start out orphaned and recovery places them.
	avail := c.admitting()
	planned := map[int][]*unit{} // executor -> its units, in task order
	pending := 0
	for ti, t := range tasks {
		base := rel.HashCombine(t.KeyHi, rel.Mix64(t.KeyLo))
		mine := map[int]*unit{}
		for _, ch := range t.Chunks {
			home := local
			if len(avail) > 0 {
				home = avail[(base+uint64(ch.Index))%uint64(len(avail))]
			}
			u := mine[home]
			if u == nil {
				u = &unit{task: ti, tried: map[int]bool{}}
				mine[home] = u
				planned[home] = append(planned[home], u)
				pending++
			}
			u.chunks = append(u.chunks, ch)
			u.trials += ch.N
		}
	}

	out := make([]core.RemoteCounts, len(tasks))
	events := make(chan event)
	batchDone := make(chan struct{})
	defer close(batchDone)
	send := func(ev event) { // the batch ending first releases the sender
		select {
		case events <- ev:
		case <-batchDone:
		}
	}
	var timers []*time.Timer
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()
	hedgeDelay, hedgeOK := c.hedgeDelay()

	// launch fires one dispatch asynchronously and, unless it is itself a
	// hedge or local, arms its straggler timer.
	launch := func(d *dispatch) {
		req := make([]core.RemoteTask, len(d.units))
		for i, u := range d.units {
			u.inflight++
			u.tried[d.exec] = true
			req[i] = tasks[u.task]
			req[i].Chunks = u.chunks
		}
		go func() {
			counts, err := c.execute(ctx, d.exec, req)
			send(event{d: d, counts: counts, err: err})
		}()
		if hedgeOK && !d.hedge && d.exec != local {
			timers = append(timers, time.AfterFunc(hedgeDelay, func() { send(event{d: d, straggling: true}) }))
		}
	}

	// relaunch is the one recovery site: every unit of us still owed work
	// goes to its next executor, one dispatch per distinct target. A hedge
	// with nowhere to go is dropped (the retry ladder still applies); a
	// failure with nowhere to go ends the batch with its cause.
	relaunch := func(us []*unit, hedge bool, cause error) error {
		byTarget := map[int]*dispatch{}
		for _, u := range us {
			if u.done || (!hedge && u.inflight > 0) { // a hedge copy still carries it
				continue
			}
			target, err := c.next(u, hedge)
			if err != nil {
				if hedge {
					continue
				}
				if cause == nil {
					cause = err
				}
				return cause
			}
			d := byTarget[target]
			if d == nil {
				d = &dispatch{exec: target, hedge: hedge}
				byTarget[target] = d
			}
			d.units = append(d.units, u)
		}
		for target := local; target < len(c.peer); target++ {
			if d := byTarget[target]; d != nil {
				if hedge {
					c.hedges.Add(1)
				}
				launch(d)
			}
		}
		return nil
	}

	if len(avail) == 0 {
		if err := relaunch(planned[local], false, nil); err != nil {
			return nil, err
		}
	}
	for _, pi := range avail {
		if us := planned[pi]; us != nil {
			launch(&dispatch{exec: pi, units: us})
		}
	}

	for pending > 0 {
		var ev event
		select {
		case ev = <-events:
		case <-ctx.Done():
			return nil, &Error{Shard: "cluster", Attempts: 1, Err: ctx.Err()}
		}
		if ev.straggling {
			_ = relaunch(ev.d.units, true, nil) // a hedge never fails the batch
			continue
		}
		var owed []*unit
		won, cause, start := false, ev.err, time.Now()
		for i, u := range ev.d.units {
			u.inflight--
			switch {
			case u.done: // dedupe: an earlier copy already counted
			case ev.err == nil && validCounts(ev.counts[i], u.trials):
				rc, t := ev.counts[i], &out[u.task]
				t.Hits += rc.Hits
				t.Trials += rc.Trials
				u.done, won = true, true
				pending--
			default:
				if ev.err == nil {
					// A malformed count must not poison the estimate:
					// the unit failed, like its dispatch would have.
					cause = &Error{Shard: c.execName(ev.d.exec), Attempts: 1,
						Err: fmt.Errorf("shard returned impossible counts %+v for a task assigned %d trials", ev.counts[i], u.trials)}
				}
				owed = append(owed, u)
			}
		}
		c.mergeNanos.Add(time.Since(start).Nanoseconds())
		if won && ev.d.hedge {
			c.hedgeWins.Add(1)
		}
		if len(owed) > 0 {
			// One failover per dispatch that came back still owing work —
			// whether a hedge in flight covers it or relaunch does now.
			c.failovers.Add(1)
			if err := relaunch(owed, false, cause); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// validCounts reports whether rc can be the summed counts of chunk runs
// totalling trials trials. Every field crossed the wire as an unchecked
// uvarint (a value above MaxInt64 arrives negative), and core's estimators
// reject impossible counts outright, so a violating unit is never merged.
func validCounts(rc core.RemoteCounts, trials int64) bool {
	return rc.Trials == trials && 0 <= rc.Hits && rc.Hits <= rc.Trials
}

// execName names an executor for error messages.
func (c *Coordinator) execName(exec int) string {
	if exec == local {
		return "local"
	}
	return c.peer[exec].addr
}

// execute runs tasks on one executor and returns one count record per
// task. The local sampler decodes the same wire payload a peer would
// receive, so the variable-id remap — and with it every PRNG draw — is
// exactly a real shard's: the fallback is bit-identical, not merely
// approximately equal.
func (c *Coordinator) execute(ctx context.Context, exec int, tasks []core.RemoteTask) ([]core.RemoteCounts, error) {
	payload := encodeSampleRequest(tasks)
	var counts []core.RemoteCounts
	var err error
	if exec == local {
		c.localFallbacks.Add(1)
		var wt []wireTask
		if wt, err = decodeSampleRequest(payload); err == nil {
			counts, err = c.localShard().sample(wt)
		}
	} else {
		var resp []byte
		if resp, err = c.rpc(ctx, c.peer[exec], msgSample, payload); err != nil {
			return nil, err // already a typed *Error carrying the attempt count
		}
		counts, err = decodeSampleResult(resp)
	}
	if err == nil && len(counts) != len(tasks) {
		err = fmt.Errorf("cluster: shard returned %d results for %d tasks", len(counts), len(tasks))
	}
	if err != nil {
		return nil, &Error{Shard: c.execName(exec), Attempts: 1, Err: err}
	}
	return counts, nil
}
