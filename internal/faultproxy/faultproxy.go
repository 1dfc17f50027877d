// Package faultproxy is a deterministic fault-injecting TCP proxy for
// chaos testing the cluster layer. It fronts one backend and applies a
// scripted policy per accepted connection (connections are numbered from
// 1 in accept order): pass traffic through, refuse outright, blackhole
// (swallow bytes, never answer), delay responses, or truncate a response
// mid-frame and reset — the classic "shard died mid-query" failure.
//
// The proxy understands the cluster wire format just enough to be
// frame-aware on the backend→client path: every message is a 4-byte
// big-endian length prefix followed by that many bytes. Frame awareness
// is what makes "kill after the handshake, during the first sample
// response" a deterministic, scriptable event instead of a race.
//
// All injected randomness (latency jitter, cut positions) derives from a
// per-connection PRNG seeded by (proxy seed, connection number), so a
// scenario replays identically under one seed regardless of goroutine
// interleaving.
package faultproxy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Action selects what a policy does to its connection.
type Action int

const (
	// Pass relays traffic unmodified (still subject to Latency).
	Pass Action = iota
	// Refuse closes the client connection immediately on accept.
	Refuse
	// Blackhole accepts and swallows client bytes but never answers —
	// the client's deadline, not the proxy, ends the connection.
	Blackhole
	// Truncate relays CutFrames complete backend frames, then leaks
	// CutBytes bytes of the next frame and resets the connection.
	Truncate
)

// actionNames renders actions for flag parsing and stats.
var actionNames = map[string]Action{
	"pass": Pass, "refuse": Refuse, "blackhole": Blackhole, "truncate": Truncate,
}

// Policy is the scripted behaviour of one connection.
type Policy struct {
	Action Action
	// Latency is injected before each backend→client frame (with ±20%
	// seeded jitter), modelling a slow shard. Zero = no delay.
	Latency time.Duration
	// CutFrames is how many complete backend frames to relay before a
	// Truncate cuts. 1 = let the handshake ack through, kill the first
	// sample response mid-frame.
	CutFrames int
	// CutBytes is how many bytes of the doomed frame to leak before the
	// reset; negative picks a seeded random position inside the frame.
	CutBytes int
}

// Script maps connection numbers (1-based, accept order) to policies;
// unlisted connections get Default.
type Script struct {
	Conns   map[int]Policy
	Default Policy
}

// Stats counts what the proxy did.
type Stats struct {
	Conns       int64 // connections accepted
	Refused     int64 // refused by policy or down state
	Blackholed  int64
	Cut         int64 // truncated mid-frame
	BytesUp     int64 // client → backend
	BytesDown   int64 // backend → client
	DownRefused int64 // refused because SetDown(true)
}

// Proxy is one fault-injecting listener in front of one backend.
type Proxy struct {
	backend string
	script  Script
	seed    int64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	down   bool
	closed bool

	connSeq     atomic.Int64
	refused     atomic.Int64
	blackholed  atomic.Int64
	cut         atomic.Int64
	bytesUp     atomic.Int64
	bytesDown   atomic.Int64
	downRefused atomic.Int64

	wg sync.WaitGroup
}

// New builds a proxy for the backend; call Start to begin listening.
func New(backend string, script Script, seed int64) *Proxy {
	return &Proxy{backend: backend, script: script, seed: seed, conns: map[net.Conn]bool{}}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the
// background until Close.
func (p *Proxy) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return errors.New("faultproxy: proxy is closed")
	}
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// SetDown toggles hard-down: while down, new connections are refused and
// every live connection is reset — the whole process-kill failure mode,
// reversible for re-admission scenarios.
func (p *Proxy) SetDown(down bool) {
	p.mu.Lock()
	p.down = down
	if down {
		for c := range p.conns {
			reset(c)
		}
	}
	p.mu.Unlock()
}

// Close stops the listener and kills every live connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	p.wg.Wait()
	return nil
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:       p.connSeq.Load(),
		Refused:     p.refused.Load(),
		Blackholed:  p.blackholed.Load(),
		Cut:         p.cut.Load(),
		BytesUp:     p.bytesUp.Load(),
		BytesDown:   p.bytesDown.Load(),
		DownRefused: p.downRefused.Load(),
	}
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		n := int(p.connSeq.Add(1))
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		if p.down {
			p.downRefused.Add(1)
			p.refused.Add(1)
			p.mu.Unlock()
			reset(conn)
			continue
		}
		pol, ok := p.script.Conns[n]
		if !ok {
			pol = p.script.Default
		}
		if pol.Action == Refuse {
			p.refused.Add(1)
			p.mu.Unlock()
			reset(conn)
			continue
		}
		p.conns[conn] = true
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(conn, n, pol)
		}()
	}
}

// track-removal + close for a finished connection.
func (p *Proxy) drop(conn net.Conn) {
	conn.Close()
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

func (p *Proxy) serve(conn net.Conn, n int, pol Policy) {
	defer p.drop(conn)
	rng := rand.New(rand.NewSource(p.seed ^ int64(uint64(n)*0x9e3779b97f4a7c15)))
	if pol.Action == Blackhole {
		p.blackholed.Add(1)
		nr, _ := io.Copy(io.Discard, conn)
		p.bytesUp.Add(nr)
		return
	}
	up, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		return
	}
	defer up.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nr, _ := io.Copy(up, conn)
		p.bytesUp.Add(nr)
		// Client went away or was cut: stop the backend read too.
		up.Close()
	}()
	p.relayDown(conn, up, pol, rng)
	conn.Close()
	up.Close()
	wg.Wait()
}

// errCut marks a deliberate mid-frame cut.
var errCut = errors.New("faultproxy: cut")

// relayDown forwards backend frames to the client, applying latency and
// the truncate policy. Frame = 4-byte big-endian length + that many
// bytes, matching the cluster protocol.
func (p *Proxy) relayDown(dst, src net.Conn, pol Policy, rng *rand.Rand) {
	frames := 0
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size > 1<<28 {
			return // corrupt upstream; give up
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(src, body); err != nil {
			return
		}
		if pol.Latency > 0 {
			// ±20% seeded jitter keeps replays deterministic per seed.
			jitter := time.Duration(rng.Int63n(int64(pol.Latency)*2/5+1)) - pol.Latency/5
			time.Sleep(pol.Latency + jitter)
		}
		full := append(hdr[:], body...)
		if pol.Action == Truncate && frames >= pol.CutFrames {
			cut := pol.CutBytes
			if cut < 0 || cut >= len(full) {
				cut = rng.Intn(len(full))
			}
			nw, _ := dst.Write(full[:cut])
			p.bytesDown.Add(int64(nw))
			p.cut.Add(1)
			reset(dst)
			return
		}
		nw, err := dst.Write(full)
		p.bytesDown.Add(int64(nw))
		if err != nil {
			return
		}
		frames++
	}
}

// reset closes a TCP connection with an RST instead of a FIN, the way a
// killed process's kernel does.
func reset(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	conn.Close()
}

// ParsePolicy parses a policy spec for the CLI:
//
//	ACTION[,latency=DUR][,frames=N][,bytes=N]
//
// e.g. "truncate,frames=1,bytes=3" or "delay,latency=300ms" (delay is an
// alias for pass with latency).
func ParsePolicy(s string) (Policy, error) {
	var pol Policy
	pol.CutBytes = -1
	fields := splitComma(s)
	if len(fields) == 0 {
		return pol, errors.New("faultproxy: empty policy")
	}
	name := fields[0]
	if name == "delay" {
		name = "pass"
	}
	act, ok := actionNames[name]
	if !ok {
		return pol, fmt.Errorf("faultproxy: unknown action %q", fields[0])
	}
	pol.Action = act
	for _, f := range fields[1:] {
		k, v, ok := cutEq(f)
		if !ok {
			return pol, fmt.Errorf("faultproxy: malformed policy field %q", f)
		}
		switch k {
		case "latency":
			d, err := time.ParseDuration(v)
			if err != nil {
				return pol, fmt.Errorf("faultproxy: latency: %w", err)
			}
			pol.Latency = d
		case "frames":
			n, err := parseInt(v)
			if err != nil {
				return pol, fmt.Errorf("faultproxy: frames: %w", err)
			}
			pol.CutFrames = n
		case "bytes":
			n, err := parseInt(v)
			if err != nil {
				return pol, fmt.Errorf("faultproxy: bytes: %w", err)
			}
			pol.CutBytes = n
		default:
			return pol, fmt.Errorf("faultproxy: unknown policy field %q", k)
		}
	}
	return pol, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func cutEq(s string) (k, v string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '=' {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}

func parseInt(s string) (int, error) {
	n := 0
	if s == "" {
		return 0, errors.New("empty number")
	}
	neg := false
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("bad number %q", s)
		}
		n = n*10 + int(s[i]-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}
