package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a coordinator: the shard peer set and the
// failure-handling envelope. It is the public pdb.ClusterOptions.
// Estimation chunk batches scatter across the peers (each task's chunks
// round-robin over the healthy peers, from a hash of its lineage-content
// fingerprint); exact algebra, planning, caching, tenancy, and the HTTP
// surface all stay on the coordinator process, and shards keep no state.
// Results are bit-identical to single-node execution for any peer count
// under one seed — a property the failure machinery preserves: a chunk
// relaunched on a different shard (or sampled by the coordinator itself)
// replays the same fixed PRNG stream and contributes the same counts.
type Config struct {
	// Peers are the shard server addresses (host:port), as served by
	// `pdbserve -shard`. Order decides only which peer a chunk lands on,
	// never a result bit.
	Peers []string
	// DialTimeout bounds connection establishment per attempt
	// (0 = 5s).
	DialTimeout time.Duration
	// RequestTimeout is the per-shard, per-attempt deadline covering
	// write + remote sampling + read (0 = 2m). A shard that exceeds it is
	// retried, failed over to the surviving shards, and only then reported
	// via *Error — evaluations never hang on a dead shard.
	RequestTimeout time.Duration
	// Retries is how many times a failed shard RPC is retried on a fresh
	// connection before its chunk ranges fail over to the surviving shards
	// (negative = 0; default 2).
	Retries int
	// RetryBackoff is the base delay before a retry, doubling per
	// attempt (0 = 100ms).
	RetryBackoff time.Duration

	// BreakerThreshold is how many consecutive exhausted-retry failures
	// trip a shard's circuit breaker. A tripped shard is skipped at plan
	// time — queries stop paying its timeouts — until a background probe
	// re-admits it. 0 = 3; negative disables the breaker.
	BreakerThreshold int
	// ProbeInterval is how often the background prober pings shards
	// whose breaker is open; a reply re-admits the shard (0 = 2s;
	// negative disables probing — an open shard then re-admits only via
	// a successful racing RPC or an explicit Probe call).
	ProbeInterval time.Duration
	// HedgeAfter controls straggler hedging: a shard RPC still unanswered
	// after this delay is duplicated to a shard its work has not tried and
	// the first complete response wins (the duplicate is discarded by
	// chunk-range dedupe — deterministic chunk counts make the race
	// bit-neutral). 0 adapts the delay from observed latencies
	// (1.5 × p95); negative disables hedging.
	HedgeAfter time.Duration
	// LocalFallback lets the coordinator sample chunk ranges in-process
	// when no shard is healthy (or every shard failed mid-batch), so
	// evaluations degrade to single-node speed instead of failing when the
	// whole shard fleet is down. Results stay bit-identical — local
	// sampling round-trips tasks through the wire codec so it replays
	// exactly what a shard would.
	LocalFallback bool
}

// Error reports a failed shard interaction: which shard, how many
// attempts were made, and the final transport or protocol error. It is
// the public pdb.ClusterError, returned (wrapped) by Eval on a clustered
// engine when a shard stays unreachable past its retry budget and no
// failover target remains — a typed, bounded-time failure, never a hang.
type Error struct {
	// Shard is the peer address that failed ("cluster" for cluster-wide
	// failures — no healthy shard left — and "local" for coordinator-local
	// fallback failures).
	Shard string
	// Attempts is the number of RPC attempts made against it.
	Attempts int
	// Err is the final underlying error.
	Err error
}

// Error implements the error interface, under the public type's name.
func (e *Error) Error() string {
	return fmt.Sprintf("pdb: cluster shard %s failed after %d attempt(s): %v", e.Shard, e.Attempts, e.Err)
}

// Unwrap returns the underlying transport or protocol error.
func (e *Error) Unwrap() error { return e.Err }

// ErrNoHealthyShards is the terminal failure of a batch that ran out of
// shards: every peer is tripped or failed and local fallback is off.
var ErrNoHealthyShards = errors.New("no healthy shards and local fallback is disabled")

// Coordinator scatters estimation batches across shard servers and
// gathers their counts. It implements core.Distributor. Connections are
// pooled per peer and re-established transparently. Failure handling is
// per-RPC retries with backoff, then relaunching the orphaned work unit on
// its next executor (dispatch.go) — all without changing a single output
// bit, because any executor samples a chunk's fixed PRNG stream identically.
type Coordinator struct {
	cfg  Config
	peer []*peer

	// local is the fallback sampler (an in-process Shard with no
	// listener), built lazily when LocalFallback work first arrives.
	localOnce sync.Once
	local     *Shard

	// stop/probeDone bound the background prober's lifetime.
	stop      chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once

	lat latencyWindow

	batches        atomic.Int64
	mergeNanos     atomic.Int64
	failovers      atomic.Int64
	hedges         atomic.Int64
	hedgeWins      atomic.Int64
	localFallbacks atomic.Int64
	probes         atomic.Int64
	probeFailures  atomic.Int64
}

// peer is one shard endpoint: its connection pool, breaker, and counters.
type peer struct {
	addr string
	brk  *breaker

	mu   sync.Mutex
	idle []net.Conn

	rpcs      atomic.Int64
	failures  atomic.Int64
	retries   atomic.Int64
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	healthy   atomic.Bool
	lastErr   atomic.Value // string
}

// maxIdleConns bounds each peer's idle-connection pool.
const maxIdleConns = 4

// New builds a coordinator over the given shard set.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one peer")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = 3
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0 // breaker disabled
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	c := &Coordinator{
		cfg:       cfg,
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	for _, addr := range cfg.Peers {
		p := &peer{addr: addr, brk: newBreaker(cfg.BreakerThreshold)}
		p.healthy.Store(true)
		c.peer = append(c.peer, p)
	}
	if cfg.BreakerThreshold > 0 && cfg.ProbeInterval > 0 {
		go c.probeLoop()
	} else {
		close(c.probeDone)
	}
	return c, nil
}

// Close stops the background prober and drops every pooled connection.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() { close(c.stop) })
	<-c.probeDone
	for _, p := range c.peer {
		p.mu.Lock()
		for _, conn := range p.idle {
			conn.Close()
		}
		p.idle = nil
		p.mu.Unlock()
	}
	return nil
}

// Probe runs probe over every shard once, so the first plan already skips
// an unreachable one, and returns the number that answered. pdbserve calls
// it at boot: a partially-dead peer set degrades instead of failing, and
// the background prober re-admits shards as they come back.
func (c *Coordinator) Probe(ctx context.Context) (healthy int) {
	for _, p := range c.peer {
		if c.probe(ctx, p) {
			healthy++
		}
	}
	return healthy
}

// probeLoop is the background prober: every ProbeInterval it probes each
// peer whose breaker is open, under min(DialTimeout, 2s).
func (c *Coordinator) probeLoop() {
	defer close(c.probeDone)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	timeout := min(c.cfg.DialTimeout, 2*time.Second)
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, p := range c.peer {
			if p.brk.admit() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			c.probe(ctx, p)
			cancel()
		}
	}
}

// probe sends p one ping, a single attempt: a reply closes its breaker, a
// failure opens it. It reports whether p answered.
func (c *Coordinator) probe(ctx context.Context, p *peer) bool {
	c.probes.Add(1)
	if _, err := c.attempt(ctx, p, msgPing, nil); err != nil {
		c.probeFailures.Add(1)
		p.brk.trip()
		p.healthy.Store(false)
		p.lastErr.Store(err.Error())
		return false
	}
	p.brk.succeeded()
	p.healthy.Store(true)
	return true
}

// admitting returns the peer indexes whose breakers admit work, in peer
// order (deterministic).
func (c *Coordinator) admitting() []int {
	out := make([]int, 0, len(c.peer))
	for i, p := range c.peer {
		if p.brk.admit() {
			out = append(out, i)
		}
	}
	return out
}

// rpc performs one request/response on a pooled connection to p, retrying
// transient transport failures with exponential backoff on fresh
// connections. Every failure path is bounded: dial and request deadlines
// come from the config, and ctx cancellation aborts between attempts.
// Success and exhausted-retry failure both feed the peer's breaker.
func (c *Coordinator) rpc(ctx context.Context, p *peer, typ byte, payload []byte) ([]byte, error) {
	attempts := c.cfg.Retries + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			backoff := c.cfg.RetryBackoff << (attempt - 1)
			select {
			case <-ctx.Done():
				return nil, &Error{Shard: p.addr, Attempts: attempt, Err: ctx.Err()}
			case <-time.After(backoff):
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, &Error{Shard: p.addr, Attempts: attempt + 1, Err: err}
		}
		start := time.Now()
		resp, err := c.attempt(ctx, p, typ, payload)
		if err == nil {
			if typ == msgSample {
				c.lat.observe(time.Since(start))
			}
			p.healthy.Store(true)
			p.brk.succeeded()
			return resp, nil
		}
		lastErr = err
		p.lastErr.Store(err.Error())
	}
	p.failures.Add(1)
	p.healthy.Store(false)
	p.brk.failed()
	return nil, &Error{Shard: p.addr, Attempts: attempts, Err: lastErr}
}

// attempt runs one RPC attempt on one connection (pooled or fresh).
//
// Connection-pool hygiene invariant: a connection returns to the pool
// only after a complete, well-typed response frame — every other path
// (write error, deadline expiry, mid-frame read error, decode failure,
// error frame, unexpected type) closes and drops it. A half-read stream
// must never be reused: the next request would read the remainder of the
// poisoned frame as its own response.
func (c *Coordinator) attempt(ctx context.Context, p *peer, typ byte, payload []byte) ([]byte, error) {
	conn, err := p.get(ctx, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			conn.Close()
		}
	}()
	deadline := time.Now().Add(c.cfg.RequestTimeout)
	if d, has := ctx.Deadline(); has && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	p.rpcs.Add(1)
	if err := writeFrame(conn, typ, payload); err != nil {
		return nil, err
	}
	p.bytesSent.Add(frameSize(payload))
	rtyp, resp, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	p.bytesRecv.Add(frameSize(resp))
	switch {
	case typ == msgPing && rtyp == msgPong,
		typ == msgSample && rtyp == msgSampleResult:
		_ = conn.SetDeadline(time.Time{})
		p.put(conn)
		ok = true
		return resp, nil
	case rtyp == msgError:
		d := dec{b: resp}
		return nil, fmt.Errorf("cluster: shard error: %s", d.str())
	default:
		return nil, fmt.Errorf("cluster: unexpected response type %d", rtyp)
	}
}

// get returns a pooled connection or dials and handshakes a fresh one.
func (p *peer) get(ctx context.Context, dialTimeout time.Duration) (net.Conn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		conn := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return conn, nil
	}
	p.mu.Unlock()
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(dialTimeout)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := handshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// put returns a healthy connection to the pool.
func (p *peer) put(conn net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= maxIdleConns {
		conn.Close()
		return
	}
	p.idle = append(p.idle, conn)
}

// latencyWindow tracks recent successful sample-RPC latencies for the
// adaptive hedge delay. Fixed-size ring, coarse by design: hedging only
// needs "clearly slower than its cohort", not a precise percentile.
type latencyWindow struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   int // observations recorded (saturates at len(buf) for reads)
	idx int
}

// minHedgeObservations gates adaptive hedging until the window has
// enough samples to call something a straggler.
const minHedgeObservations = 8

func (l *latencyWindow) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// p95 returns the 95th-percentile latency of the window, or ok=false
// when there are too few observations to hedge on.
func (l *latencyWindow) p95() (time.Duration, bool) {
	l.mu.Lock()
	n := l.n
	tmp := make([]time.Duration, n)
	copy(tmp, l.buf[:n])
	l.mu.Unlock()
	if n < minHedgeObservations {
		return 0, false
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return tmp[(n*95+99)/100-1], true
}

// hedgeDelay resolves the straggler delay: a fixed HedgeAfter wins,
// 0 adapts from the latency window (1.5 × p95, floored at 25ms), and a
// negative setting — or a window still warming up — disables hedging.
func (c *Coordinator) hedgeDelay() (time.Duration, bool) {
	switch {
	case c.cfg.HedgeAfter > 0:
		return c.cfg.HedgeAfter, true
	case c.cfg.HedgeAfter < 0:
		return 0, false
	}
	p95, ok := c.lat.p95()
	if !ok {
		return 0, false
	}
	d := p95 + p95/2
	if d < 25*time.Millisecond {
		d = 25 * time.Millisecond
	}
	return d, true
}

// localShard returns the coordinator-local fallback sampler, building it
// on first use.
func (c *Coordinator) localShard() *Shard {
	c.localOnce.Do(func() {
		c.local = NewShard(ShardConfig{})
	})
	return c.local
}

// ShardStatus is one shard's health and traffic counters, as seen from the
// coordinator (the public pdb.ClusterShardStatus). The JSON names are the
// shard entries of GET /v1/stats.
type ShardStatus struct {
	// Addr is the shard's address.
	Addr string `json:"addr"`
	// Healthy reports whether the shard's most recent RPC succeeded.
	Healthy bool `json:"healthy"`
	// Breaker is the shard's circuit-breaker state: "closed" (handed
	// work) or "open" (skipped until a probe answers). Readiness,
	// shards_down and the breaker gauge all read it.
	Breaker string `json:"breaker"`
	// RPCs, Failures, and Retries count RPC attempts against the shard,
	// RPCs that exhausted every retry, and individual retry attempts.
	RPCs     int64 `json:"rpcs"`
	Failures int64 `json:"failures"`
	Retries  int64 `json:"retries"`
	// BytesSent and BytesRecv count wire traffic to and from the shard.
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// LastError is the most recent RPC error message (empty when none).
	LastError string `json:"last_error,omitempty"`
}

// Stats is a snapshot of the coordinator's scatter-gather activity (the
// public pdb.ClusterStats). The JSON names are the "cluster" section of
// GET /v1/stats.
type Stats struct {
	// Batches counts scatter-gather round trips.
	Batches int64 `json:"batches"`
	// MergeNanos is the cumulative time spent merging gathered counts.
	MergeNanos int64 `json:"merge_nanos"`
	// Failovers counts dispatches that failed or returned impossible
	// counts while owing work, relaunched on an untried shard (or locally).
	Failovers int64 `json:"failovers"`
	// Hedges and HedgeWins count straggler hedges issued and hedges
	// whose duplicate finished first.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// LocalFallbacks counts dispatches the coordinator sampled itself
	// because no shard was available.
	LocalFallbacks int64 `json:"local_fallbacks"`
	// Probes and ProbeFailures count probe pings and the ones that went
	// unanswered, boot probes (Probe) and background probes alike.
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
	// LocalFallback reports whether coordinator-local sampling is
	// enabled.
	LocalFallback bool `json:"local_fallback"`
	// Shards holds one entry per configured peer, in peer order.
	Shards []ShardStatus `json:"shards"`
}

// Stats returns a snapshot of coordinator and per-shard counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Batches:        c.batches.Load(),
		MergeNanos:     c.mergeNanos.Load(),
		Failovers:      c.failovers.Load(),
		Hedges:         c.hedges.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		LocalFallbacks: c.localFallbacks.Load(),
		Probes:         c.probes.Load(),
		ProbeFailures:  c.probeFailures.Load(),
		LocalFallback:  c.cfg.LocalFallback,
	}
	for _, p := range c.peer {
		s := ShardStatus{
			Addr:      p.addr,
			Healthy:   p.healthy.Load(),
			Breaker:   p.brk.state(),
			RPCs:      p.rpcs.Load(),
			Failures:  p.failures.Load(),
			Retries:   p.retries.Load(),
			BytesSent: p.bytesSent.Load(),
			BytesRecv: p.bytesRecv.Load(),
		}
		if v, ok := p.lastErr.Load().(string); ok {
			s.LastError = v
		}
		st.Shards = append(st.Shards, s)
	}
	return st
}
