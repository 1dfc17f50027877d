package cluster

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// testTask builds a RemoteTask with awkward content: sparse var ids,
// subnormal and near-one probabilities, and a run starting mid-chunk.
func testTask(t testing.TB) core.RemoteTask {
	t.Helper()
	table := vars.NewTable()
	var ids []vars.Var
	for _, n := range []string{"x0", "x1", "x2", "x3", "x4"} {
		ids = append(ids, table.Add(n, []float64{0.25, 0.5, 0.25}, nil))
	}
	f := dnf.F{
		{{Var: ids[4], Alt: 0}},
		{{Var: ids[1], Alt: 2}, {Var: ids[3], Alt: 1}},
		{{Var: ids[0], Alt: 1}, {Var: ids[2], Alt: 0}, {Var: ids[4], Alt: 2}},
	}
	return core.RemoteTask{
		KeyHi:     0xdeadbeefcafef00d,
		KeyLo:     0x0123456789abcdef,
		Seed:      -7,
		ChunkSize: 4096,
		MaxStrata: 4,
		Stratum:   2,
		Clauses:   f,
		Vars:      table,
		Chunks:    []sched.Chunk{{Index: 0, N: 4096}, {Index: 3, Skip: 1000, N: 100}},
	}
}

func TestSampleRequestRoundTrip(t *testing.T) {
	orig := testTask(t)
	payload := encodeSampleRequest([]core.RemoteTask{orig})
	got, err := decodeSampleRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d tasks, want 1", len(got))
	}
	w := got[0]
	if w.seed != orig.Seed ||
		w.chunkSize != orig.ChunkSize || w.maxStrata != orig.MaxStrata || w.stratum != orig.Stratum {
		t.Errorf("scalar fields diverge: %+v", w)
	}
	if len(w.clauses) != len(orig.Clauses) {
		t.Fatalf("decoded %d clauses, want %d", len(w.clauses), len(orig.Clauses))
	}
	// The remap is order-preserving: binding j of clause i names the same
	// variable (by identity) with the same bit-exact probabilities.
	for i, a := range orig.Clauses {
		if len(w.clauses[i]) != len(a) {
			t.Fatalf("clause %d: %d bindings, want %d", i, len(w.clauses[i]), len(a))
		}
		for j, b := range a {
			wb := w.clauses[i][j]
			if wb.Alt != b.Alt {
				t.Errorf("clause %d binding %d: alt %d, want %d", i, j, wb.Alt, b.Alt)
			}
			oin, win := orig.Vars.Info(b.Var), w.table.Info(wb.Var)
			if win.ID != oin.ID {
				t.Errorf("clause %d binding %d: var %x, want %x", i, j, win.ID, oin.ID)
			}
			for k := range oin.Probs {
				if math.Float64bits(win.Probs[k]) != math.Float64bits(oin.Probs[k]) {
					t.Errorf("var %x prob %d not bit-exact", oin.ID, k)
				}
			}
		}
	}
	if len(w.chunks) != 2 || w.chunks[1] != (sched.Chunk{Index: 3, Skip: 1000, N: 100}) {
		t.Errorf("chunks diverge: %+v", w.chunks)
	}
}

func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	payload := encodeSampleRequest([]core.RemoteTask{testTask(t)})
	// Every truncation point must fail cleanly, never panic.
	for n := 0; n < len(payload); n++ {
		if _, err := decodeSampleRequest(payload[:n]); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", n)
		}
	}
	if _, err := decodeSampleResult([]byte{0xff}); err == nil {
		t.Error("corrupt result payload decoded successfully")
	}
}

// A chunk run must lie inside its chunk: a shard refuses any other as
// malformed input, before it samples anything.
func TestDecodeRejectsChunkOutsideItsChunk(t *testing.T) {
	for name, c := range map[string]sched.Chunk{
		"index<0":          {Index: -1, N: 10},
		"skip<0":           {Index: 1, Skip: -1, N: 10},
		"n=0":              {Index: 1, Skip: 5},
		"n<0":              {Index: 1, Skip: 5, N: -3},
		"past chunk end":   {Index: 1, Skip: 4000, N: 97},
		"skip+n overflows": {Index: 1, Skip: 4000, N: math.MaxInt64},
	} {
		task := testTask(t)
		task.Chunks = []sched.Chunk{{Index: 0, N: 4096}, c}
		if _, err := decodeSampleRequest(encodeSampleRequest([]core.RemoteTask{task})); err == nil {
			t.Errorf("%s: chunk %+v of a %d-trial chunk decoded", name, c, task.ChunkSize)
		}
	}
	task := testTask(t)
	task.Chunks = []sched.Chunk{{Index: 1, Skip: 4000, N: 96}}
	if _, err := decodeSampleRequest(encodeSampleRequest([]core.RemoteTask{task})); err != nil {
		t.Errorf("a run ending on its chunk's last trial was refused: %v", err)
	}
}

func TestSampleResultRoundTrip(t *testing.T) {
	in := []core.RemoteCounts{
		{Hits: 1, Trials: 4096},
		{Hits: 12345, Trials: 1 << 40},
	}
	out, err := decodeSampleResult(encodeSampleResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("record %d: %+v, want %+v", i, out[i], in[i])
		}
	}
}
