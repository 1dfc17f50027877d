// Package cluster distributes Karp–Luby estimation across processes: a
// coordinator plans queries once and scatters typed chunk work units to
// shard servers over a length-prefixed binary framing on TCP (stdlib
// only), then gathers and merges the per-shard integer counts. Because a
// chunk's PRNG stream is fixed by (task seed, plan index) and merged
// counts are commutative sums, results are bit-identical to single-node
// execution for any shard count under one seed — the engine's
// worker-count determinism contract generalized to shard count.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// Wire format. Every message is one frame:
//
//	[4-byte big-endian length][1-byte message type][payload]
//
// where length covers the type byte plus the payload. Integers inside
// payloads are unsigned varints unless noted; 64-bit hashes, seeds, and
// float bit patterns are fixed 8-byte big-endian words. Probabilities
// travel as math.Float64bits so they reconstruct bit-exactly — the
// determinism contract depends on it. A connection opens with
// hello/helloAck (magic + protocol version) and then carries synchronous
// request/response pairs: sample→sampleResult|error, ping→pong.
const (
	msgHello byte = iota + 1
	msgHelloAck
	msgSample
	msgSampleResult
	msgError
	msgPing
	msgPong
)

const (
	protocolMagic uint32 = 0x70646263 // "pdbc"
	// protocolVersion names the frame layout AND the sampling stream: a
	// shard must draw, for a given (seed, chunk), exactly the trials the
	// coordinator would. Version 2 is the compiled lazy kernel on PCG
	// chunk streams (a version-1 peer would answer with valid-looking
	// counts from another stream); version 3 drops what only a stateful
	// shard needed — the task's content key and the reused-trials count;
	// version 4 gives every chunk run its Skip, the trials of its chunk
	// before the run, and drops the open chunk's counts from the result;
	// version 5 ships each variable's 64-bit identity instead of its name
	// (the kernel orders variables by identity).
	// The handshake refuses any other version, so coordinator and shards
	// upgrade together.
	protocolVersion = 5
	// maxFrame bounds a frame; a sample batch over a large clause set is
	// the biggest legitimate message.
	maxFrame = 1 << 28
)

// writeFrame sends one typed frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", len(payload)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one typed frame.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: invalid frame length %d", n)
	}
	payload, err := readBounded(r, int(n-1))
	if err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// readChunk bounds each allocation step while reading a frame body.
const readChunk = 64 << 10

// readBounded reads exactly n bytes, but allocates in readChunk steps as
// the bytes actually arrive: a forged length prefix near maxFrame from an
// untrusted peer costs one 64KB buffer and a read error, not a 256MB
// up-front allocation.
func readBounded(r io.Reader, n int) ([]byte, error) {
	if n <= readChunk {
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	payload := make([]byte, 0, readChunk)
	for len(payload) < n {
		step := n - len(payload)
		if step > readChunk {
			step = readChunk
		}
		off := len(payload)
		payload = append(payload, make([]byte, step)...)
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// frameSize reports the on-wire size of a frame with the given payload.
func frameSize(payload []byte) int64 { return int64(5 + len(payload)) }

// checkHello validates the server half of the handshake: the first frame
// of a connection must be a hello carrying the magic and a matching
// protocol version. Malformed magic, version skew, and truncated
// payloads each yield a typed error (and never a panic), so the shard
// can answer with msgError before dropping the connection.
func checkHello(typ byte, payload []byte) error {
	if typ != msgHello {
		return fmt.Errorf("cluster: first frame is message type %d, want hello", typ)
	}
	d := dec{b: payload}
	if magic := d.u32(); d.err == nil && magic != protocolMagic {
		return fmt.Errorf("cluster: bad magic %#x", magic)
	}
	if v := d.uv(); d.err == nil && v != protocolVersion {
		return fmt.Errorf("cluster: client speaks protocol version %d, want %d", v, protocolVersion)
	}
	return d.err
}

// handshake performs the client half of hello/helloAck on a fresh
// connection. It takes the bare stream so tests can drive it against
// arbitrary (including adversarial) server bytes.
func handshake(conn io.ReadWriter) error {
	var e enc
	e.u32(protocolMagic)
	e.uv(protocolVersion)
	if err := writeFrame(conn, msgHello, e.b); err != nil {
		return err
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	if typ == msgError {
		d := dec{b: payload}
		return fmt.Errorf("cluster: shard rejected handshake: %s", d.str())
	}
	if typ != msgHelloAck {
		return fmt.Errorf("cluster: handshake got message type %d", typ)
	}
	d := dec{b: payload}
	if v := d.uv(); d.err == nil && v != protocolVersion {
		return fmt.Errorf("cluster: shard speaks protocol version %d, want %d", v, protocolVersion)
	}
	return d.err
}

// enc is an append-only payload builder.
type enc struct{ b []byte }

func (e *enc) u32(v uint32)  { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) uv(v uint64)   { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string)  { e.uv(uint64(len(s))); e.b = append(e.b, s...) }

// dec is the matching cursor-based reader; the first malformed field
// poisons it and every later read returns zero values.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() { d.err = errors.New("cluster: truncated or malformed message") }

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		if d.err == nil {
			d.fail()
		}
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		if d.err == nil {
			d.fail()
		}
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) str() string {
	n := d.uv()
	if d.err != nil || d.off+int(n) > len(d.b) || n > uint64(len(d.b)) {
		if d.err == nil {
			d.fail()
		}
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// encodeTask serializes one RemoteTask — all of it but the content key,
// which places the task and is no input to sampling. Variable ids are
// remapped to a dense local space in ascending original-id order — an
// order-preserving remap, so clause binding order (and with it the
// multiplication order of clause weights) is untouched and every derived
// float is bit-identical on the shard.
func encodeTask(e *enc, t core.RemoteTask) {
	e.i64(t.Seed)
	e.uv(uint64(t.ChunkSize))
	e.uv(uint64(t.MaxStrata))
	e.uv(uint64(t.Stratum))
	// Referenced variables, ascending by original id.
	seen := map[vars.Var]bool{}
	var used []vars.Var
	for _, a := range t.Clauses {
		for _, b := range a {
			if !seen[b.Var] {
				seen[b.Var] = true
				used = append(used, b.Var)
			}
		}
	}
	// Clause bindings are sorted by var id, but different clauses
	// interleave ids arbitrarily — sort the union once.
	sortVars(used)
	local := make(map[vars.Var]uint64, len(used))
	for i, v := range used {
		local[v] = uint64(i)
	}
	e.uv(uint64(len(used)))
	for _, v := range used {
		in := t.Vars.Info(v)
		e.u64(in.ID)
		e.uv(uint64(len(in.Probs)))
		for _, p := range in.Probs {
			e.f64(p)
		}
	}
	e.uv(uint64(len(t.Clauses)))
	for _, a := range t.Clauses {
		e.uv(uint64(len(a)))
		for _, b := range a {
			e.uv(local[b.Var])
			e.uv(uint64(b.Alt))
		}
	}
	e.uv(uint64(len(t.Chunks)))
	for _, c := range t.Chunks {
		e.uv(uint64(c.Index))
		e.uv(uint64(c.Skip))
		e.uv(uint64(c.N))
	}
}

func sortVars(vs []vars.Var) {
	// Insertion sort: clause sets reference their vars nearly in order
	// already and the slices are small relative to sampling cost.
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// wireTask is a decoded RemoteTask on the shard side: a self-contained
// clause set over a freshly restored variable table.
type wireTask struct {
	seed      int64
	chunkSize int64
	maxStrata int
	stratum   int
	clauses   dnf.F
	table     *vars.Table
	chunks    []sched.Chunk
}

// decodeTask parses one task payload section.
func decodeTask(d *dec) (wireTask, error) {
	var t wireTask
	t.seed = d.i64()
	t.chunkSize = int64(d.uv())
	t.maxStrata = int(d.uv())
	t.stratum = int(d.uv())
	nvars := d.uv()
	if d.err != nil || nvars > uint64(len(d.b)) {
		return t, errTrunc(d)
	}
	infos := make([]vars.Info, nvars)
	for i := range infos {
		id := d.u64()
		nprobs := d.uv()
		if d.err != nil || nprobs == 0 || nprobs > uint64(len(d.b)) {
			return t, errTrunc(d)
		}
		probs := make([]float64, nprobs)
		for j := range probs {
			probs[j] = d.f64()
		}
		infos[i] = vars.Info{ID: id, Probs: probs}
	}
	t.table = vars.RestoreTable(infos)
	nclauses := d.uv()
	if d.err != nil || nclauses > uint64(len(d.b)) {
		return t, errTrunc(d)
	}
	t.clauses = make(dnf.F, nclauses)
	for i := range t.clauses {
		nb := d.uv()
		if d.err != nil || nb > uint64(len(d.b)) {
			return t, errTrunc(d)
		}
		a := make(vars.Assignment, nb)
		for j := range a {
			v := d.uv()
			alt := d.uv()
			if v >= nvars {
				d.fail()
				return t, errTrunc(d)
			}
			a[j] = vars.Binding{Var: vars.Var(v), Alt: int32(alt)}
		}
		t.clauses[i] = a
	}
	nchunks := d.uv()
	if d.err != nil || nchunks > uint64(len(d.b)) {
		return t, errTrunc(d)
	}
	t.chunks = make([]sched.Chunk, nchunks)
	for i := range t.chunks {
		c := sched.Chunk{Index: int(d.uv()), Skip: int64(d.uv()), N: int64(d.uv())}
		// A run lies inside its chunk: trials [Skip, Skip+N) of [0, chunkSize).
		if c.Index < 0 || c.Skip < 0 || c.N <= 0 || c.N > t.chunkSize-c.Skip {
			d.fail()
		}
		t.chunks[i] = c
	}
	if t.chunkSize <= 0 || t.stratum < 0 || t.maxStrata < 0 {
		d.fail()
	}
	return t, d.err
}

func errTrunc(d *dec) error {
	if d.err == nil {
		d.fail()
	}
	return d.err
}

// encodeSampleRequest builds a msgSample payload from a task batch.
func encodeSampleRequest(tasks []core.RemoteTask) []byte {
	var e enc
	e.uv(uint64(len(tasks)))
	for _, t := range tasks {
		encodeTask(&e, t)
	}
	return e.b
}

// decodeSampleRequest parses a msgSample payload.
func decodeSampleRequest(payload []byte) ([]wireTask, error) {
	d := &dec{b: payload}
	n := d.uv()
	if d.err != nil || n > uint64(len(payload)) {
		return nil, errTrunc(d)
	}
	tasks := make([]wireTask, n)
	for i := range tasks {
		t, err := decodeTask(d)
		if err != nil {
			return nil, err
		}
		tasks[i] = t
	}
	return tasks, nil
}

// encodeSampleResult builds a msgSampleResult payload: one integer count
// record per task, in request order.
func encodeSampleResult(counts []core.RemoteCounts) []byte {
	var e enc
	e.uv(uint64(len(counts)))
	for _, c := range counts {
		e.uv(uint64(c.Hits))
		e.uv(uint64(c.Trials))
	}
	return e.b
}

// decodeSampleResult parses a msgSampleResult payload.
func decodeSampleResult(payload []byte) ([]core.RemoteCounts, error) {
	d := &dec{b: payload}
	n := d.uv()
	if d.err != nil || n > uint64(len(payload))+1 {
		return nil, errTrunc(d)
	}
	counts := make([]core.RemoteCounts, n)
	for i := range counts {
		counts[i] = core.RemoteCounts{Hits: int64(d.uv()), Trials: int64(d.uv())}
	}
	return counts, d.err
}
