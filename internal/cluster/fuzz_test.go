package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// Adversarial-input hardening for the wire protocol: the handshake and
// response paths must return typed errors — never panic, never hang,
// never allocate proportionally to a forged length prefix — for any
// byte stream an attacker (or a corrupted peer) can produce.

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, msgPing})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	var e enc
	e.u32(protocolMagic)
	e.uv(protocolVersion)
	var buf bytes.Buffer
	_ = writeFrame(&buf, msgHello, e.b)
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; a bounded reader also cannot hang or balloon.
		_, _, _ = readFrame(bytes.NewReader(data))
	})
}

func FuzzCheckHello(f *testing.F) {
	var e enc
	e.u32(protocolMagic)
	e.uv(protocolVersion)
	f.Add(uint8(msgHello), e.b)
	f.Add(uint8(msgSample), []byte{})
	f.Add(uint8(msgHello), []byte{0x70, 0x64})
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		_ = checkHello(typ, payload) // must not panic
	})
}

func FuzzClientHandshake(f *testing.F) {
	var good bytes.Buffer
	var ack enc
	ack.uv(protocolVersion)
	_ = writeFrame(&good, msgHelloAck, ack.b)
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, msgError, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		rw := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard}
		_ = handshake(rw) // must not panic; reads are finite
	})
}

func FuzzDecodeSampleRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(encodeSampleRequest([]core.RemoteTask{}))
	f.Add(encodeSampleRequest([]core.RemoteTask{testTask(f)})) // a run starting mid-chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := decodeSampleRequest(data) // must not panic
		if err != nil {
			return
		}
		for _, w := range tasks {
			for _, c := range w.chunks {
				if c.Skip < 0 || c.N <= 0 || c.Skip+c.N > w.chunkSize {
					t.Fatalf("decoded run %+v leaves its %d-trial chunk", c, w.chunkSize)
				}
			}
		}
	})
}

func FuzzDecodeSampleResult(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeSampleResult([]core.RemoteCounts{{Hits: 1, Trials: 2}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeSampleResult(data) // must not panic
	})
}

// SHALL: every malformed handshake variant yields a typed error.
func TestCheckHelloRejects(t *testing.T) {
	goodPayload := func() []byte {
		var e enc
		e.u32(protocolMagic)
		e.uv(protocolVersion)
		return e.b
	}
	if err := checkHello(msgHello, goodPayload()); err != nil {
		t.Fatalf("valid hello rejected: %v", err)
	}
	cases := []struct {
		name    string
		typ     byte
		payload []byte
		want    string
	}{
		{"wrong type", msgSample, goodPayload(), "want hello"},
		{"bad magic", msgHello, func() []byte {
			var e enc
			e.u32(0xdeadbeef)
			e.uv(protocolVersion)
			return e.b
		}(), "bad magic"},
		{"version skew", msgHello, func() []byte {
			var e enc
			e.u32(protocolMagic)
			e.uv(protocolVersion + 1)
			return e.b
		}(), "protocol version"},
		// A peer from before the kernel rewrite: same frames, different
		// sampling stream for the same (seed, chunk).
		{"version 1 peer", msgHello, func() []byte {
			var e enc
			e.u32(protocolMagic)
			e.uv(1)
			return e.b
		}(), "protocol version 1, want 5"},
		// A peer from before shards went stateless: same stream, but a
		// fifth (reused-trials) count per record and keyed tasks.
		{"version 2 peer", msgHello, func() []byte {
			var e enc
			e.u32(protocolMagic)
			e.uv(2)
			return e.b
		}(), "protocol version 2, want 5"},
		// A peer from before chunk runs carried their Skip: it would read
		// every request's chunks misaligned.
		{"version 3 peer", msgHello, func() []byte {
			var e enc
			e.u32(protocolMagic)
			e.uv(3)
			return e.b
		}(), "protocol version 3, want 5"},
		// A peer from before variables travelled as identities: it would
		// read each 8-byte identity as a name and order variables apart.
		{"version 4 peer", msgHello, func() []byte {
			var e enc
			e.u32(protocolMagic)
			e.uv(4)
			return e.b
		}(), "protocol version 4, want 5"},
		{"truncated", msgHello, []byte{0x70, 0x64}, "truncated"},
		{"empty", msgHello, nil, "truncated"},
	}
	for _, tc := range cases {
		err := checkHello(tc.typ, tc.payload)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// SHALL: version skew is typed in the other direction too — a client
// talking to a future shard learns the versions, not a mystery error.
func TestHandshakeRejectsServerVersionSkew(t *testing.T) {
	for _, v := range []uint64{protocolVersion + 5, 1} {
		var resp bytes.Buffer
		var ack enc
		ack.uv(v)
		_ = writeFrame(&resp, msgHelloAck, ack.b)
		rw := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(resp.Bytes()), io.Discard}
		err := handshake(rw)
		if err == nil || !strings.Contains(err.Error(), "protocol version") {
			t.Errorf("ack with version %d: err = %v, want version mismatch", v, err)
		}
	}
}

// SHALL: a shard-side msgError during handshake surfaces its message.
func TestHandshakeSurfacesShardError(t *testing.T) {
	var resp bytes.Buffer
	var e enc
	e.str("cluster: bad magic 0xdeadbeef")
	_ = writeFrame(&resp, msgError, e.b)
	rw := struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(resp.Bytes()), io.Discard}
	err := handshake(rw)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("err = %v, want the shard's message", err)
	}
}

// SHALL: an oversized length prefix costs a bounded allocation, not a
// prefix-sized one.
//
// WHEN a frame header claims maxFrame bytes but the stream ends after a
// few THEN readFrame errors and total allocation stays near one
// readChunk, far below the claimed size.
func TestReadFrameOversizedPrefixBoundedAllocation(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrame)
	hdr[4] = msgSample
	data := append(hdr[:], make([]byte, 1024)...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated oversized frame decoded successfully")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("readFrame allocated %d bytes against a forged %d-byte prefix; want bounded chunks", grew, maxFrame)
	}
}

// SHALL: out-of-range lengths are rejected before any read.
func TestReadFrameRejectsInvalidLength(t *testing.T) {
	for _, n := range []uint32{0, maxFrame + 1, 0xffffffff} {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], n)
		_, _, err := readFrame(bytes.NewReader(hdr[:]))
		if err == nil || !strings.Contains(err.Error(), "invalid frame length") {
			t.Errorf("length %d: err = %v, want invalid-frame-length", n, err)
		}
	}
}

// SHALL: a well-formed frame still round-trips through the bounded
// reader, including bodies larger than one read chunk.
func TestReadFrameLargeBodyRoundTrip(t *testing.T) {
	body := make([]byte, readChunk*3+17)
	for i := range body {
		body[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgSampleResult, body); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgSampleResult || !bytes.Equal(payload, body) {
		t.Error("large frame did not round-trip")
	}
}
