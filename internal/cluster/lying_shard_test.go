package cluster_test

import (
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/pdb"
)

// lyingProxy fronts a live shard and rewrites every sample result it sends
// back (frame type 4: a uvarint record count, then two uvarints per
// record — hits, trials) so that each record claims lie(trials) hits. It
// returns the proxy's address and the number of results rewritten so far.
func lyingProxy(t *testing.T, backend string, lie func(trials uint64) uint64) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var lies atomic.Int64
	rewrite := func(payload []byte) []byte {
		n, off := binary.Uvarint(payload)
		out := binary.AppendUvarint(nil, n)
		for ; n > 0; n-- {
			var rec [2]uint64
			for i := range rec {
				v, w := binary.Uvarint(payload[off:])
				rec[i], off = v, off+w
			}
			rec[0] = lie(rec[1])
			for _, v := range rec {
				out = binary.AppendUvarint(out, v)
			}
		}
		lies.Add(1)
		return out
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			go func() { io.Copy(up, conn); up.Close() }()
			go func() {
				defer conn.Close()
				for {
					var hdr [5]byte // 4-byte length (type + payload), type
					if _, err := io.ReadFull(up, hdr[:]); err != nil {
						return
					}
					payload := make([]byte, binary.BigEndian.Uint32(hdr[:4])-1)
					if _, err := io.ReadFull(up, payload); err != nil {
						return
					}
					if hdr[4] == 4 {
						payload = rewrite(payload)
						binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
					}
					if _, err := conn.Write(append(hdr[:], payload...)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &lies
}

// SHALL: counts that cannot be the sum of the assigned chunks never reach
// an estimate — the coordinator treats the unit as failed and re-dispatches
// it, exactly as for a trials mismatch.
//
// WHEN one of two shards answers every scatter with more hits than trials
// (or a hit count above MaxInt64) THEN Eval succeeds with the single-node
// fingerprint and the stats record failovers.
func TestClusterLyingShardFailsOver(t *testing.T) {
	db := skewDB(t)
	lies := map[string]func(uint64) uint64{
		"hits>trials":   func(trials uint64) uint64 { return trials + 1 },
		"hits>MaxInt64": func(uint64) uint64 { return 1 << 63 },
	}
	paths := map[string][]pdb.Option{
		"flat":       {pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42)},
		"stratified": {pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42), pdb.WithStrata(4)},
	}
	for pname, opts := range paths {
		want := evalClustered(t, db, grpConfProgram, nil, opts...)
		for lname, lie := range lies {
			backends := startShards(t, 2)
			liar, told := lyingProxy(t, backends[1], lie)
			got, cs := evalOn(t, db, grpConfProgram, pdb.ClusterOptions{
				Peers:         []string{backends[0], liar},
				DialTimeout:   time.Second,
				ProbeInterval: -1,
				HedgeAfter:    -1, // a hedge could cover the liar's units before its answer arrives
			}, opts...)
			if got != want {
				t.Errorf("%s, %s: rows diverge from single-node\n got: %q\nwant: %q", pname, lname, got, want)
			}
			if told.Load() == 0 {
				t.Fatalf("%s, %s: the lying shard carried no traffic; the scenario proved nothing", pname, lname)
			}
			if cs.Failovers == 0 {
				t.Errorf("%s, %s: the shard lied %d times, but no failovers recorded", pname, lname, told.Load())
			}
		}
	}
}
