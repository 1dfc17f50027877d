package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/karpluby"
	"repro/internal/sched"
)

// ShardConfig configures a shard server.
type ShardConfig struct {
	// Workers sizes the sampling pool (0 = GOMAXPROCS, like the engine).
	Workers int
	// Logger receives connection-level diagnostics; nil disables them.
	Logger *log.Logger
}

// Shard is a sampling server: it owns no data and no query planning —
// it receives self-contained estimation tasks (clause set, bit-exact
// probabilities, seed, chunk list), samples the assigned chunk streams on
// a local worker pool, and returns integer counts. It remembers nothing
// between requests: a response is a pure function of its request, so any
// shard can stand in for any other, and reuse across queries is the
// coordinator's estimator cache alone.
type Shard struct {
	cfg  ShardConfig
	pool *sched.Pool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool

	wg sync.WaitGroup

	requests      atomic.Int64
	tasks         atomic.Int64
	chunksSampled atomic.Int64
	trialsSampled atomic.Int64
}

// ShardStats is a snapshot of a shard's counters.
type ShardStats struct {
	Requests      int64 // sample RPCs served
	Tasks         int64 // estimation tasks across all RPCs
	ChunksSampled int64 // chunks sampled
	TrialsSampled int64 // trials sampled
	// TrialsReused is always 0 — shards are stateless. The field remains
	// only because the frozen benchmark/ladder.go reads it.
	TrialsReused int64
}

// NewShard builds a shard server.
func NewShard(cfg ShardConfig) *Shard {
	return &Shard{cfg: cfg, pool: sched.New(cfg.Workers), conns: map[net.Conn]bool{}}
}

// Stats returns a snapshot of the shard's counters.
func (s *Shard) Stats() ShardStats {
	return ShardStats{
		Requests:      s.requests.Load(),
		Tasks:         s.tasks.Load(),
		ChunksSampled: s.chunksSampled.Load(),
		TrialsSampled: s.trialsSampled.Load(),
	}
}

// Serve accepts connections on ln until Close. Each connection carries
// synchronous request/response pairs; a malformed frame closes the
// connection (never the server).
func (s *Shard) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("cluster: shard is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for
// in-flight handlers to drain.
func (s *Shard) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Shard) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	logf := func(format string, args ...any) {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf(format, args...)
		}
	}
	// Handshake.
	typ, payload, err := readFrame(conn)
	if err != nil {
		return
	}
	if err := checkHello(typ, payload); err != nil {
		logf("cluster: %s: %v", conn.RemoteAddr(), err)
		var e enc
		e.str(err.Error())
		_ = writeFrame(conn, msgError, e.b)
		return
	}
	var ack enc
	ack.uv(protocolVersion)
	if err := writeFrame(conn, msgHelloAck, ack.b); err != nil {
		return
	}
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return // EOF or closed
		}
		switch typ {
		case msgPing:
			if err := writeFrame(conn, msgPong, nil); err != nil {
				return
			}
		case msgSample:
			tasks, err := decodeSampleRequest(payload)
			if err != nil {
				logf("cluster: %s: %v", conn.RemoteAddr(), err)
				var e enc
				e.str(err.Error())
				_ = writeFrame(conn, msgError, e.b)
				return
			}
			counts, err := s.sample(tasks)
			if err != nil {
				logf("cluster: %s: %v", conn.RemoteAddr(), err)
				var e enc
				e.str(err.Error())
				if writeFrame(conn, msgError, e.b) != nil {
					return
				}
				continue
			}
			if err := writeFrame(conn, msgSampleResult, encodeSampleResult(counts)); err != nil {
				return
			}
		default:
			logf("cluster: %s: unexpected message type %d", conn.RemoteAddr(), typ)
			return
		}
	}
}

// build reconstructs the estimator for one wire task — the stratification
// plan the coordinator derived (the single-stratum plan for a flat task,
// maxStrata 0, which samples the flat Karp–Luby stream). The restored table
// carries the coordinator's probabilities bit-for-bit and the clause set
// arrives in canonical order, so every derived quantity — clause weights,
// the cumulative distribution, the name-sorted variable order that drives
// PRNG consumption — matches the coordinator's exactly.
func (t *wireTask) build() (*karpluby.Stratified, error) {
	plan := karpluby.PlanStrata(t.clauses, t.table, max(t.maxStrata, 1))
	est, err := karpluby.NewStratified(t.clauses, t.table, plan)
	if err != nil {
		return nil, fmt.Errorf("cluster: rebuilding estimator: %w", err)
	}
	if t.stratum >= est.StratumCount() || est.StratumM(t.stratum) <= 0 {
		return nil, fmt.Errorf("cluster: stratum %d of %d cannot be sampled", t.stratum, est.StratumCount())
	}
	return est, nil
}

// sample executes one task batch: every (task, chunk) pair fans out
// across the shard's worker pool and per-task sums are returned in request
// order.
func (s *Shard) sample(tasks []wireTask) ([]core.RemoteCounts, error) {
	s.requests.Add(1)
	s.tasks.Add(int64(len(tasks)))
	ests := make([]*karpluby.Stratified, len(tasks))
	for i := range tasks {
		est, err := tasks[i].build()
		if err != nil {
			return nil, err
		}
		ests[i] = est
	}
	type unit struct {
		task  int
		chunk sched.Chunk
	}
	var units []unit
	for i, t := range tasks {
		for _, c := range t.chunks {
			units = append(units, unit{task: i, chunk: c})
		}
	}
	counts := make([]core.RemoteCounts, len(tasks))
	var mu sync.Mutex
	err := s.pool.ForEachCtx(context.Background(), len(units), func(i int) error {
		u := units[i]
		t := &tasks[u.task]
		hits, _ := ests[u.task].SampleChunk(t.stratum, t.seed, u.chunk, nil)
		s.chunksSampled.Add(1)
		s.trialsSampled.Add(u.chunk.N)
		mu.Lock()
		counts[u.task].Hits += hits
		counts[u.task].Trials += u.chunk.N
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}
