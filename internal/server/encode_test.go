package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/pdb"
)

// queryRow is one streamed result row as encoding/json writes it: the
// encoding rowEncoder reproduces, and the shape the tests decode rows into.
type queryRow struct {
	Row        map[string]any `json:"row"`
	ErrorBound float64        `json:"error_bound"`
	Singular   bool           `json:"singular,omitempty"`
	Condition  string         `json:"condition,omitempty"`
}

// oracleRow is the reference encoding of row: a map of its cells beside
// the other fields, through encoding/json.
func oracleRow(t testing.TB, cols []string, row pdb.Row) []byte {
	t.Helper()
	vals := make(map[string]any, len(cols))
	for _, c := range cols {
		vals[c] = row.Value(c)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(queryRow{Row: vals, ErrorBound: row.ErrorBound(),
		Singular: row.Singular(), Condition: row.Condition()}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRows requires rowEncoder's line for every row of res to equal the
// oracle's bytes, and returns the number of rows checked.
func checkRows(t testing.TB, res *pdb.Result) int {
	t.Helper()
	cols := res.Columns()
	enc := newRowEncoder(cols)
	for row := range res.Rows() {
		enc.append(row)
		if want := oracleRow(t, cols, row); !bytes.Equal(enc.buf, want) {
			t.Fatalf("columns %q:\n got %s\nwant %s", cols, enc.buf, want)
		}
		enc.buf = enc.buf[:0]
	}
	return res.Len()
}

// eval prepares program over db and evaluates it exactly, or with seed
// when seed > 0.
func eval(t testing.TB, db *pdb.DB, program string, seed int64) *pdb.Result {
	t.Helper()
	q, err := db.Prepare(program)
	if err != nil {
		t.Fatal(err)
	}
	var res *pdb.Result
	if seed > 0 {
		res, err = q.Eval(context.Background(), pdb.WithSeed(seed))
	} else {
		res, err = q.EvalExact(context.Background())
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// awkward are the strings the escaping must get right: empty, control
// characters, quote and backslash, HTML characters, U+2028/2029, DEL,
// multi-byte and invalid UTF-8.
var awkward = []string{"", "\x00", "\t\n\r\b\f", "\x1f", `"`, `\`, `a\"b`, "<", ">", "&", "<a href=\"x\">&amp;</a>",
	"\u2028", "\u2029", "x\u2028y", "\x7f", "é", "日本", "\xff", "a\xc3", "\xed\xa0\x80", "|", `\|`, "P", "p1"}

// randString is a printable ASCII word, or, one time in three, an
// awkward string or a random byte string.
func randString(r *rand.Rand) string {
	switch r.IntN(6) {
	case 0:
		return awkward[r.IntN(len(awkward))]
	case 1:
		b := make([]byte, r.IntN(8))
		for i := range b {
			b[i] = byte(r.UintN(256))
		}
		return string(b)
	}
	b := make([]byte, 1+r.IntN(10))
	for i := range b {
		b[i] = byte(' ' + r.IntN(95))
	}
	return string(b)
}

// randFloat favours the edges of encoding/json's float formats: around
// 1e-6 and 1e21, ±0, subnormals and the extremes.
func randFloat(r *rand.Rand) float64 {
	edges := []float64{1e-6, 1e21, 0, math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-7, 1e20, 0.1, 1}
	var f float64
	switch r.IntN(4) {
	case 0:
		f = edges[r.IntN(len(edges))]
	case 1:
		f = math.Nextafter(edges[r.IntN(2)], math.Inf(2*r.IntN(2)-1))
	case 2:
		f = math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0
		}
	default:
		f = r.Float64() * math.Pow(10, float64(r.IntN(60)-30))
	}
	if r.IntN(2) == 0 {
		f = -f
	}
	return f
}

func randValue(r *rand.Rand) any {
	switch r.IntN(7) {
	case 0:
		return nil
	case 1:
		return r.IntN(2) == 0
	case 2:
		return []int64{0, -1, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1}[r.IntN(6)]
	case 3:
		return int64(r.Uint64())
	case 4, 5:
		return randFloat(r)
	default:
		return randString(r)
	}
}

// SHALL: a streamed row is byte for byte what encoding/json writes for it
// as a map. WHEN 10⁴ seeded random rows — floats at the 1e-6 and 1e21
// format boundaries, −0, extreme ints, control characters, invalid UTF-8,
// U+2028/2029, HTML characters, quotes and backslashes in values and in
// column names, NULLs — and conditioned, approximate and singular rows are
// encoded THEN every line equals the oracle's.
func TestRowEncoderMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 1))
	b := pdb.NewBuilder()
	const tables, perTable = 40, 260
	for i := 0; i < tables; i++ {
		cols, seen, width := []string{}, map[string]bool{}, 2+r.IntN(5)
		for len(cols) < width {
			if c := randString(r); !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
		rows := make([][]any, perTable)
		for j := range rows {
			rows[j] = make([]any, len(cols))
			for k := range cols {
				rows[j][k] = randValue(r)
			}
		}
		b.Table(fmt.Sprintf("R%d", i), cols, rows...)
	}
	// I: tuple conditions; T: the σ̂ singularity of wire_test.go.
	var irows [][]any
	var iprobs []float64
	for j := 0; j < 50; j++ {
		irows = append(irows, []any{fmt.Sprintf("g%d", j%7), randFloat(r)})
		iprobs = append(iprobs, 0.05+0.9*r.Float64())
	}
	db, err := b.Independent("I", []string{"G", "<V>"}, irows, iprobs).
		Independent("T", []string{"ID", "K"}, [][]any{{0, 1}, {0, 2}}, []float64{0.5, 0.5}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < tables; i++ {
		n += checkRows(t, eval(t, db, fmt.Sprintf("R%d", i), 0))
	}
	if n < 10000 {
		t.Fatalf("checked %d random rows, want 10⁴", n)
	}
	conditioned := eval(t, db, "I", 0)
	checkRows(t, conditioned)
	approx := eval(t, db, "aselect[p1 >= 0.3 over conf[G]](I)", 3)
	checkRows(t, approx)
	singular := 0
	for seed := int64(1); seed <= 40; seed++ {
		res := eval(t, db, singularProgram, seed)
		checkRows(t, res)
		for row := range res.Rows() {
			if row.Singular() {
				singular++
			}
		}
	}
	if conditioned.Complete() || approx.MaxErrorBound() == 0 || singular == 0 {
		t.Fatalf("fixtures lost their shape: complete %v, max bound %v, singular rows %d",
			conditioned.Complete(), approx.MaxErrorBound(), singular)
	}
}

// FuzzRowEncoding encodes a one-row result — one string cell, one float
// cell, with or without a world condition — and requires the oracle's
// bytes for finite floats, the protobuf JSON strings otherwise.
func FuzzRowEncoding(f *testing.F) {
	f.Add("s1", 0.4, false)
	f.Add("<\u2028\xff>", 1e-7, true)
	f.Add(`"\`, -1e21, false)
	f.Add("", math.Inf(-1), true)
	f.Fuzz(func(t *testing.T, s string, x float64, conditioned bool) {
		b := pdb.NewBuilder()
		row := []any{s, x}
		if conditioned {
			b.Independent("R", []string{"S", "X"}, [][]any{row}, []float64{0.5})
		} else {
			b.Table("R", []string{"S", "X"}, row)
		}
		db, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := eval(t, db, "R", 0)
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			checkRows(t, res)
			return
		}
		enc := newRowEncoder(res.Columns())
		for row := range res.Rows() {
			enc.append(row)
		}
		var got queryRow
		if err := json.Unmarshal(enc.buf, &got); err != nil {
			t.Fatalf("%v: %s", err, enc.buf)
		}
		want := "NaN"
		if math.IsInf(x, 0) {
			want = map[bool]string{true: "Infinity", false: "-Infinity"}[x > 0]
		}
		if got.Row["X"] != want {
			t.Fatalf("X = %#v, want %q", got.Row["X"], want)
		}
	})
}

// SHALL: a result holding NaN or ±Inf cells streams every row and the
// trailer. WHEN a relation's float column holds NaN, +Inf and −Inf and a
// query returns it THEN those cells arrive as the JSON strings "NaN",
// "Infinity" and "-Infinity", and the stream does not stop before them.
func TestWireNonFiniteCells(t *testing.T) {
	db, err := pdb.NewBuilder().
		Independent("T", []string{"K", "V"}, [][]any{
			{"a", 1.5}, {"b", math.NaN()}, {"c", 2.5}, {"d", math.Inf(1)}, {"e", math.Inf(-1)},
		}, []float64{0.5, 0.5, 0.5, 0.5, 0.5}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := db.Engine()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"program":"conf(T)","exact":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := map[string]any{}
	trailer := false
	sc := bufio.NewScanner(resp.Body)
	for line := 0; sc.Scan(); line++ {
		var obj struct {
			Row   map[string]any  `json:"row"`
			Stats *map[string]any `json:"stats"`
		}
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d: %v: %s", line, err, sc.Bytes())
		}
		switch {
		case obj.Row != nil:
			got[obj.Row["K"].(string)] = obj.Row["V"]
		case obj.Stats != nil:
			trailer = true
			if n := (*obj.Stats)["rows"]; n != 5.0 {
				t.Errorf("trailer rows = %v, want 5", n)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"a": 1.5, "b": "NaN", "c": 2.5, "d": "Infinity", "e": "-Infinity"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("row %s: V = %#v, want %#v", k, got[k], v)
		}
	}
	if len(got) != len(want) || !trailer {
		t.Errorf("streamed %d rows (want %d), trailer %v: the stream stopped early", len(got), len(want), trailer)
	}
}
