package store

import (
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rel"
)

func sampleRelation(t *testing.T) *rel.Relation {
	t.Helper()
	r := rel.NewRelation(rel.NewSchema("id", "name", "score", "ok", "note"))
	rows := []rel.Tuple{
		{rel.Int(1), rel.String("alice"), rel.Float(0.5), rel.Bool(true), rel.Null()},
		{rel.Int(2), rel.String("bob"), rel.Float(-1.25), rel.Bool(false), rel.String("x|y")},
		{rel.Int(-3), rel.String("alice"), rel.Float(math.Inf(1)), rel.Bool(true), rel.String("")},
		{rel.Int(math.MaxInt64), rel.String("κ"), rel.Float(math.Copysign(0, -1)), rel.Bool(false), rel.Null()},
		{rel.Int(math.MinInt64), rel.String("bob"), rel.Float(1e-308), rel.Bool(true), rel.String("alice")},
	}
	for _, row := range rows {
		r.Add(row)
	}
	return r
}

// requireSameRelation asserts schema, row order, and bit-level value
// identity (stricter than rel.Equal, which is order-insensitive and
// numerically tolerant).
func requireSameRelation(t *testing.T, got, want *rel.Relation) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("schema = %v, want %v", got.Schema(), want.Schema())
	}
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	gt, wt := got.Tuples(), want.Tuples()
	for i := range wt {
		for j := range wt[i] {
			g, w := gt[i][j], wt[i][j]
			if g.Kind() != w.Kind() {
				t.Fatalf("row %d col %d: kind %v, want %v", i, j, g.Kind(), w.Kind())
			}
			if g.Kind() == rel.FloatKind {
				if math.Float64bits(g.AsFloat()) != math.Float64bits(w.AsFloat()) {
					t.Fatalf("row %d col %d: float bits %x, want %x", i, j,
						math.Float64bits(g.AsFloat()), math.Float64bits(w.AsFloat()))
				}
				continue
			}
			if !rel.Equal(g, w) {
				t.Fatalf("row %d col %d: %v, want %v", i, j, g, w)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	want := sampleRelation(t)
	path := filepath.Join(t.TempDir(), "sample.pdbs")
	if err := WriteRelation(path, want); err != nil {
		t.Fatalf("WriteRelation: %v", err)
	}
	got, err := ReadRelation(path, rel.NewInterner())
	if err != nil {
		t.Fatalf("ReadRelation: %v", err)
	}
	requireSameRelation(t, got, want)
}

func TestRoundTripNaN(t *testing.T) {
	// NaN payloads must survive bit-exactly, including non-canonical ones.
	weirdNaN := math.Float64frombits(0x7ff8000000000fff)
	r := rel.NewRelation(rel.NewSchema("x", "y"))
	r.Add(rel.Tuple{rel.Float(math.NaN()), rel.Int(1)})
	r.Add(rel.Tuple{rel.Float(weirdNaN), rel.Int(2)})

	path := filepath.Join(t.TempDir(), "nan.pdbs")
	if err := WriteRelation(path, r); err != nil {
		t.Fatalf("WriteRelation: %v", err)
	}
	got, err := ReadRelation(path, nil)
	if err != nil {
		t.Fatalf("ReadRelation: %v", err)
	}
	if got.Len() != 2 {
		t.Fatalf("len = %d, want 2", got.Len())
	}
	if bits := math.Float64bits(got.Tuples()[1][0].AsFloat()); bits != 0x7ff8000000000fff {
		t.Fatalf("NaN payload = %x, want 7ff8000000000fff", bits)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	want := rel.NewRelation(rel.NewSchema("a", "b"))
	path := filepath.Join(t.TempDir(), "empty.pdbs")
	if err := WriteRelation(path, want); err != nil {
		t.Fatalf("WriteRelation: %v", err)
	}
	got, err := ReadRelation(path, nil)
	if err != nil {
		t.Fatalf("ReadRelation: %v", err)
	}
	requireSameRelation(t, got, want)
}

func TestWriterStreaming(t *testing.T) {
	// Write row by row, confirming the writer needs no materialized
	// relation and dictionary indexes dedup across rows.
	path := filepath.Join(t.TempDir(), "stream.pdbs")
	w, err := NewWriter(path, rel.NewSchema("k", "s"))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	const n = 10_000
	for i := 0; i < n; i++ {
		s := "tag-" + string(rune('a'+i%7))
		if err := w.Write(rel.Tuple{rel.Int(int64(i)), rel.String(s)}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if r.Rows() != n {
		t.Fatalf("Rows = %d, want %d", r.Rows(), n)
	}
	// Only 7 distinct strings should be in the dictionary.
	dict, err := r.dictionary()
	if err != nil {
		t.Fatalf("dictionary: %v", err)
	}
	if len(dict) != 7 {
		t.Fatalf("dictionary has %d entries, want 7", len(dict))
	}
	// Lazy scan of one column must see every row in order without
	// touching the other column.
	var sum int64
	err = r.ScanColumn(0, func(row int64, v rel.Value) error {
		if v.AsInt() != row {
			t.Fatalf("row %d holds %v", row, v)
		}
		sum += v.AsInt()
		return nil
	})
	if err != nil {
		t.Fatalf("ScanColumn: %v", err)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if r.cols[1] != nil {
		t.Fatal("scanning column 0 materialized column 1")
	}
}

func TestWriterArityMismatch(t *testing.T) {
	w, err := NewWriter(filepath.Join(t.TempDir(), "x.pdbs"), rel.NewSchema("a", "b"))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	defer w.Abort()
	if err := w.Write(rel.Tuple{rel.Int(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestWriterAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(filepath.Join(dir, "x.pdbs"), rel.NewSchema("a"))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.Write(rel.Tuple{rel.Int(1)}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	w.Abort()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("abort left %d files behind", len(ents))
	}
}

func TestSniff(t *testing.T) {
	dir := t.TempDir()
	pdbs := filepath.Join(dir, "r.pdbs")
	if err := WriteRelation(pdbs, sampleRelation(t)); err != nil {
		t.Fatalf("WriteRelation: %v", err)
	}
	csv := filepath.Join(dir, "r.csv")
	if err := os.WriteFile(csv, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if !Sniff(pdbs) {
		t.Error("Sniff(pdbstore file) = false")
	}
	if Sniff(csv) {
		t.Error("Sniff(csv file) = true")
	}
	if Sniff(filepath.Join(dir, "missing")) {
		t.Error("Sniff(missing file) = true")
	}
}

// TestCorruption flips, truncates, and rewrites bytes all over a valid
// file and requires every damaged variant to fail with ErrFormat (never a
// panic, never silent success) — except flips confined to string bytes
// inside the dictionary, which the dictionary CRC catches.
func TestCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.pdbs")
	if err := WriteRelation(path, sampleRelation(t)); err != nil {
		t.Fatalf("WriteRelation: %v", err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	load := func(t *testing.T, data []byte) error {
		t.Helper()
		p := filepath.Join(t.TempDir(), "c.pdbs")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		r, err := Open(p)
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = r.Relation(nil)
		return err
	}

	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 1, len(Magic), len(orig) / 2, len(orig) - trailerSize, len(orig) - 1} {
			if err := load(t, orig[:n]); err == nil {
				t.Errorf("truncation to %d bytes accepted", n)
			}
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		// Step through the file so the test stays fast but touches the
		// magic, column data, dictionary, footer, and trailer regions.
		step := len(orig)/97 + 1
		for off := 0; off < len(orig); off += step {
			mut := append([]byte(nil), orig...)
			mut[off] ^= 0x40
			if err := load(t, mut); err == nil {
				t.Errorf("bit flip at offset %d accepted", off)
			} else if !errors.Is(err, ErrFormat) {
				t.Errorf("bit flip at offset %d: error %v does not wrap ErrFormat", off, err)
			}
		}
	})

	t.Run("garbage", func(t *testing.T) {
		if err := load(t, []byte("not a store file at all, but long enough to have a trailer")); err == nil {
			t.Error("garbage accepted")
		}
	})
}

// TestForwardCompat checks the version gate: a file claiming a newer
// minor version than the reader must be rejected with a version message.
func TestForwardCompat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.pdbs")
	if err := WriteRelation(path, sampleRelation(t)); err != nil {
		t.Fatalf("WriteRelation: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	// Locate the footer via the trailer and bump its version field, then
	// refresh the footer CRC so only the version gate can object.
	tr := data[len(data)-trailerSize:]
	footOff := int64(leU64(tr[0:8]))
	footLen := int64(leU64(tr[8:16]))
	data[footOff] = byte(Version + 1)
	data[footOff+1] = byte((Version + 1) >> 8)
	refreshFooterCRC(data, footOff, footLen)

	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	_, err = Open(path)
	if err == nil {
		t.Fatal("newer-version file accepted")
	}
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("error %v does not wrap ErrFormat", err)
	}
}

func TestTrailingFooterBytesAccepted(t *testing.T) {
	// Minor versions may append footer fields; a version-1 reader must
	// ignore trailing footer bytes it does not understand.
	path := filepath.Join(t.TempDir(), "r.pdbs")
	want := sampleRelation(t)
	if err := WriteRelation(path, want); err != nil {
		t.Fatalf("WriteRelation: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	tr := data[len(data)-trailerSize:]
	footOff := int64(leU64(tr[0:8]))
	footLen := int64(leU64(tr[8:16]))
	// Splice 4 extra bytes onto the footer and grow its recorded length.
	ext := append([]byte(nil), data[:footOff+footLen]...)
	ext = append(ext, 0xde, 0xad, 0xbe, 0xef)
	ext = append(ext, data[footOff+footLen:]...)
	newTr := ext[len(ext)-trailerSize:]
	putLeU64(newTr[8:16], uint64(footLen+4))
	refreshFooterCRC(ext, footOff, footLen+4)

	if err := os.WriteFile(path, ext, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadRelation(path, nil)
	if err != nil {
		t.Fatalf("ReadRelation with extended footer: %v", err)
	}
	requireSameRelation(t, got, want)
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putLeU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// refreshFooterCRC recomputes the trailer's footer checksum after a test
// mutates footer bytes in place.
func refreshFooterCRC(data []byte, footOff, footLen int64) {
	crc := crc32.ChecksumIEEE(data[footOff : footOff+footLen])
	tr := data[len(data)-trailerSize:]
	tr[16] = byte(crc)
	tr[17] = byte(crc >> 8)
	tr[18] = byte(crc >> 16)
	tr[19] = byte(crc >> 24)
}

// TestRoundTripEquality pins that the codec preserves value identity on the
// numeric edge cases: what is read back is Equal to what was written, with
// the same Key and Hash.
func TestRoundTripEquality(t *testing.T) {
	vals := []rel.Value{
		rel.Float(math.NaN()), rel.Float(math.Inf(1)), rel.Float(math.Inf(-1)),
		rel.Float(math.Copysign(0, -1)), rel.Float(0.5), rel.Int(1), rel.Float(1.5), rel.Int(1<<53 + 1),
	}
	want := rel.NewRelation(rel.NewSchema("i", "x"))
	for i, v := range vals {
		want.Add(rel.Tuple{rel.Int(int64(i)), v})
	}
	path := filepath.Join(t.TempDir(), "edge.pdbs")
	if err := WriteRelation(path, want); err != nil {
		t.Fatalf("WriteRelation: %v", err)
	}
	got, err := ReadRelation(path, nil)
	if err != nil {
		t.Fatalf("ReadRelation: %v", err)
	}
	if got.Len() != len(vals) {
		t.Fatalf("len = %d, want %d", got.Len(), len(vals))
	}
	for i, row := range got.Tuples() {
		g, w := row[1], vals[i]
		if !rel.Equal(g, w) || g.Key() != w.Key() || g.Hash(rel.HashSeed) != w.Hash(rel.HashSeed) {
			t.Errorf("value %d: read %v (key %q), wrote %v (key %q)", i, g, g.Key(), w, w.Key())
		}
	}
}
