package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/pdb"
)

// The wire contract of the two JSON bodies clients parse: the NDJSON
// trailer of POST /v1/query and the body of GET /v1/stats. Each scenario
// pins the exact keys of an object, in order — so both which keys exist and
// which of them survive a zero value — written WHEN / THEN against the HTTP
// surface. The values are covered by the other tests of this package.

// wireServer serves one database holding a fixture per trailer scenario,
// through peers in-process shard servers when peers > 0.
func wireServer(t *testing.T, cfg Config, peers int) (*httptest.Server, *pdb.Engine) {
	t.Helper()
	var obs [][]any
	var obsP []float64
	for s := 0; s < 4; s++ {
		for r := 0; r < 4; r++ {
			obs = append(obs, []any{fmt.Sprintf("s%d", s), r})
			obsP = append(obsP, 0.3)
		}
	}
	// R × S: one hard 12-clause lineage component per group (hardServer).
	probsR := []float64{0.9, 0.6, 0.05, 0.02, 0.002, 0.0005}
	rowsR := make([][]any, len(probsR))
	for i := range probsR {
		rowsR[i] = []any{int64(i), int64(i / 2)}
	}
	// A, B: a join far larger than a 16 KiB memory budget (pdb's spillDB).
	var a, b [][]any
	for i := 0; i < 400; i++ {
		a = append(a, []any{i % 40, i})
		b = append(b, []any{i % 40, i, float64(i)/7 + 0.5})
	}
	db, err := pdb.NewBuilder().
		Independent("Obs", []string{"Sensor", "Reading"}, obs, obsP).
		Independent("R", []string{"ID", "Grp"}, rowsR, probsR).
		Independent("S", []string{"SID"},
			[][]any{{int64(1)}, {int64(2)}, {int64(3)}, {int64(4)}, {int64(5)}, {int64(6)}},
			[]float64{0.8, 0.3, 0.04, 0.01, 0.002, 0.001}).
		// T: conf[ID] is 1 − 0.5² = 0.75, exactly a σ̂ threshold below
		// (core's TestApproxSelectSingularFlagged fixture).
		Independent("T", []string{"ID", "K"}, [][]any{{0, 1}, {0, 2}}, []float64{0.5, 0.5}).
		Table("A", []string{"K", "X"}, a...).
		Table("B", []string{"K", "J", "Y"}, b...).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var opts []pdb.EngineOption
	if peers > 0 {
		addrs := make([]string, peers)
		for i := range addrs {
			sh := cluster.NewShard(cluster.ShardConfig{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			go sh.Serve(ln)
			t.Cleanup(func() { sh.Close() })
		}
		opts = append(opts, pdb.WithEngineCluster(pdb.ClusterOptions{Peers: addrs}))
	}
	eng, err := db.Engine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	cfg.Engine = eng
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, eng
}

const singularProgram = `aselect[p1 >= 0.75 over conf[ID]](T);`

// objectKeys returns the keys of one JSON object in encoding order, with
// each key's raw value.
func objectKeys(t *testing.T, raw []byte) ([]string, map[string]json.RawMessage) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v, %v): %s", tok, err, raw)
	}
	var keys []string
	vals := map[string]json.RawMessage{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		vals[tok.(string)] = v
	}
	return keys, vals
}

// rawTrailer posts one query and returns the raw bytes of the trailer's
// "stats" object.
func rawTrailer(t *testing.T, ts *httptest.Server, body string) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	_, vals := objectKeys(t, last)
	if vals["stats"] == nil {
		t.Fatalf("last line is not a trailer: %s", last)
	}
	return vals["stats"]
}

// SHALL: the trailer's keys are rows, max_error_bound, sampled_trials,
// reused_trials, cache_hits and elapsed_ms always, and final_rounds,
// restarts, decisions, singular_drops, strata, early_stops, exact_factored,
// spilled_bytes and spill_files only when non-zero.
func TestWireTrailerKeys(t *testing.T) {
	ts, eng := wireServer(t, Config{SpillDir: t.TempDir()}, 0)
	seed, _ := singularSeed(t, eng)
	q := func(program, rest string) string {
		return fmt.Sprintf(`{"program": %q%s}`, program, rest)
	}
	for _, tc := range []struct {
		when     string
		body     string
		then     []string
		contains string
	}{
		{when: "a conf query runs cold",
			body: q(testProgram, `, "seed": 7`),
			then: []string{"rows", "max_error_bound", "final_rounds", "sampled_trials", "reused_trials", "cache_hits", "elapsed_ms"}},
		{when: "a conf query replays from the cache",
			body:     q(testProgram, `, "seed": 7`),
			then:     []string{"rows", "max_error_bound", "final_rounds", "sampled_trials", "reused_trials", "cache_hits", "elapsed_ms"},
			contains: `"sampled_trials":0`},
		{when: "a query is evaluated exactly, so every counter is zero",
			body:     q(testProgram, `, "exact": true`),
			then:     []string{"rows", "max_error_bound", "sampled_trials", "reused_trials", "cache_hits", "elapsed_ms"},
			contains: `"sampled_trials":0,"reused_trials":0,"cache_hits":0`},
		{when: "a stratified conf query over hard lineage stops early",
			body: q(hardProgram, `, "seed": 11, "strata": 8, "conf_epsilon": 0.05, "conf_delta": 0.05`),
			then: []string{"rows", "max_error_bound", "final_rounds", "sampled_trials", "reused_trials", "cache_hits", "strata", "early_stops", "elapsed_ms"}},
		{when: "a stratified conf query factors easy lineage exactly",
			body: q(testProgram, `, "seed": 7, "strata": 4`),
			then: []string{"rows", "max_error_bound", "final_rounds", "sampled_trials", "reused_trials", "cache_hits", "exact_factored", "elapsed_ms"}},
		{when: "a σ̂ doubles its round budget",
			body: q(`aselect[p1 >= 0.5 over conf[ID]](T);`, `, "seed": 3`),
			then: []string{"rows", "max_error_bound", "final_rounds", "sampled_trials", "reused_trials", "cache_hits", "decisions", "elapsed_ms"}},
		{when: "a σ̂ under a merging projection walks again",
			body: q(`project[0 as C](aselect[p1 >= 0.5 over conf[Sensor]](Obs));`, `, "seed": 3`),
			then: []string{"rows", "max_error_bound", "final_rounds", "restarts", "sampled_trials", "reused_trials", "cache_hits", "decisions", "elapsed_ms"}},
		{when: "a σ̂ query drops its boundary tuple as a potential singularity",
			body: q(singularProgram, fmt.Sprintf(`, "seed": %d`, seed)),
			then: []string{"rows", "max_error_bound", "final_rounds", "sampled_trials", "reused_trials", "cache_hits", "decisions", "singular_drops", "elapsed_ms"}},
		{when: "an over-budget exact join spills",
			body: q(`project[K, X, Y](union(join(A, B), join(A, B)));`, `, "exact": true, "max_memory_bytes": 16384`),
			then: []string{"rows", "max_error_bound", "sampled_trials", "reused_trials", "cache_hits", "spilled_bytes", "spill_files", "elapsed_ms"}},
	} {
		t.Run("WHEN "+tc.when, func(t *testing.T) {
			raw := rawTrailer(t, ts, tc.body)
			keys, vals := objectKeys(t, raw)
			if !reflect.DeepEqual(keys, tc.then) {
				t.Errorf("THEN the trailer's keys are\n  %v, got\n  %v", tc.then, keys)
			}
			if !bytes.Contains(raw, []byte(tc.contains)) {
				t.Errorf("THEN the trailer contains %s, got %s", tc.contains, raw)
			}
			for _, k := range []string{"final_rounds", "restarts", "decisions", "singular_drops", "strata",
				"early_stops", "exact_factored", "spilled_bytes", "spill_files"} {
				if v, ok := vals[k]; ok && string(v) == "0" {
					t.Errorf("THEN %s is omitted when zero, got %s", k, raw)
				}
			}
		})
	}
}

// SHALL: a σ̂ answer that dropped tuples as potential ε₀-singularities — the
// decisions Theorem 6.7's δ does not cover — says so over HTTP. WHEN a σ̂
// query whose pdb.Result reports SingularDrops > 0 is posted. THEN the
// trailer reports the same singular_drops and decisions.
func TestWireTrailerReportsSingularDrops(t *testing.T) {
	ts, eng := wireServer(t, Config{}, 0)
	seed, want := singularSeed(t, eng)
	raw := rawTrailer(t, ts, fmt.Sprintf(`{"program": %q, "seed": %d}`, singularProgram, seed))
	var got struct {
		Decisions     *int `json:"decisions"`
		SingularDrops *int `json:"singular_drops"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Decisions == nil || *got.Decisions != want.Decisions ||
		got.SingularDrops == nil || *got.SingularDrops != want.SingularDrops {
		t.Errorf("seed %d: trailer %s, want decisions %d and singular_drops %d",
			seed, raw, want.Decisions, want.SingularDrops)
	}
}

// singularSeed returns the first seed in 1..32 under which singularProgram
// drops its boundary tuple as a potential singularity on eng, with that
// evaluation's statistics. Whether one seed drops it is a coin flip of the
// sampled estimate (conf is exactly the threshold), so no test pins a seed.
func singularSeed(t *testing.T, eng *pdb.Engine) (int64, pdb.Stats) {
	t.Helper()
	q, err := eng.Prepare(singularProgram)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 32; seed++ {
		res, err := q.Eval(context.Background(), pdb.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats(); st.SingularDrops > 0 {
			return seed, st
		}
	}
	t.Fatal("fixture: no seed in 1..32 drops the boundary tuple as singular")
	return 0, pdb.Stats{}
}

// SHALL: a request field the server no longer reads is ignored, not an
// error — a client of an older release may still send the removed switch
// that turned estimator reuse off, or the removed threshold / top_k effort
// knobs. WHEN a warmed server receives a request identical to an earlier
// one except for such fields set. THEN it answers 200 AND the header and
// row bytes equal those of the same request sent without them AND so does
// every trailer key except elapsed_ms.
func TestWireIgnoresRemovedField(t *testing.T) {
	ts, _ := wireServer(t, Config{}, 0)
	lines := func(body string) []string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("THEN it answers 200, got %d: %s", resp.StatusCode, raw)
		}
		return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	}
	for _, removed := range []struct{ what, fields string }{
		{"the removed switch", `"no_resume": true`},
		{"the removed effort knobs", `"threshold": 0.5, "top_k": 1`},
	} {
		for _, tc := range []struct{ when, program, rest string }{
			{"a conf query", testProgram, `, "seed": 7`},
			{"a σ̂ query that restarts", `aselect[p1 >= 0.5 over conf[ID]](T);`, `, "seed": 3`},
		} {
			t.Run("WHEN "+tc.when+" is repeated with "+removed.what, func(t *testing.T) {
				plain := fmt.Sprintf(`{"program": %q%s}`, tc.program, tc.rest)
				lines(plain)
				flagged := lines(fmt.Sprintf(`{"program": %q%s, %s}`, tc.program, tc.rest, removed.fields))
				want := lines(plain)
				if len(flagged) != len(want) || len(want) < 2 {
					t.Fatalf("THEN the answers have equal line counts, got %d and %d", len(flagged), len(want))
				}
				last := len(want) - 1
				if !reflect.DeepEqual(flagged[:last], want[:last]) {
					t.Errorf("THEN the header and rows are equal, got\n  %v, want\n  %v", flagged[:last], want[:last])
				}
				_, got := objectKeys(t, []byte(flagged[last]))
				_, exp := objectKeys(t, []byte(want[last]))
				gotStats, gotVals := objectKeys(t, got["stats"])
				wantStats, wantVals := objectKeys(t, exp["stats"])
				if !reflect.DeepEqual(gotStats, wantStats) {
					t.Fatalf("THEN the trailer keys are equal, got %v, want %v", gotStats, wantStats)
				}
				for _, k := range wantStats {
					if k != "elapsed_ms" && !bytes.Equal(gotVals[k], wantVals[k]) {
						t.Errorf("THEN trailer key %s is equal, got %s, want %s", k, gotVals[k], wantVals[k])
					}
				}
			})
		}
	}
}

// SHALL: GET /v1/stats has the sections engine, server and admission, and
// cluster on a sharded deployment only; every key of every section is
// present on a server that has done no work, except max_in_flight (without
// admission control) and a shard's last_error (before any error).
func TestWireStatsKeys(t *testing.T) {
	sections := func(t *testing.T, ts *httptest.Server) ([]string, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return objectKeys(t, raw)
	}
	expect := func(t *testing.T, what string, raw json.RawMessage, want ...string) {
		t.Helper()
		if got, _ := objectKeys(t, raw); !reflect.DeepEqual(got, want) {
			t.Errorf("THEN the keys of %s are\n  %v, got\n  %v", what, want, got)
		}
	}
	engine := []string{"evals", "in_flight", "sampled_trials", "reused_trials", "cache_hits", "cache_misses",
		"cache_entries", "cache_capacity", "cache_evictions", "limit_trips", "early_stops", "exact_factored",
		"memo_entries", "memo_bytes", "memo_hits", "memo_evictions"}
	server := []string{"requests", "failures", "rows_streamed", "uptime_ms"}

	t.Run("WHEN a single-node server has served nothing", func(t *testing.T) {
		ts, _ := wireServer(t, Config{}, 0)
		top, sec := sections(t, ts)
		if want := []string{"engine", "server", "admission"}; !reflect.DeepEqual(top, want) {
			t.Errorf("THEN the sections are %v, got %v", want, top)
		}
		expect(t, "engine", sec["engine"], engine...)
		expect(t, "server", sec["server"], server...)
		expect(t, "admission", sec["admission"], "enabled", "in_flight", "waiting")
	})

	t.Run("WHEN admission control is on and one shard has sampled a query", func(t *testing.T) {
		ts, _ := wireServer(t, Config{MaxInFlight: 2}, 1)
		rawTrailer(t, ts, fmt.Sprintf(`{"program": %q, "seed": 7}`, testProgram))
		top, sec := sections(t, ts)
		if want := []string{"engine", "server", "admission", "cluster"}; !reflect.DeepEqual(top, want) {
			t.Errorf("THEN the sections are %v, got %v", want, top)
		}
		expect(t, "engine", sec["engine"], engine...)
		expect(t, "server", sec["server"], server...)
		expect(t, "admission", sec["admission"], "enabled", "max_in_flight", "in_flight", "waiting")
		expect(t, "cluster", sec["cluster"], "batches", "merge_nanos", "failovers", "hedges", "hedge_wins",
			"local_fallbacks", "probes", "probe_failures", "local_fallback", "shards", "shards_total", "shards_down")
		_, cl := objectKeys(t, sec["cluster"])
		var shards []json.RawMessage
		if err := json.Unmarshal(cl["shards"], &shards); err != nil || len(shards) != 1 {
			t.Fatalf("THEN cluster.shards has one entry, got %s (%v)", cl["shards"], err)
		}
		expect(t, "a shard entry", shards[0], "addr", "healthy", "breaker", "rpcs", "failures", "retries",
			"bytes_sent", "bytes_recv")
		if !bytes.Contains(sec["cluster"], []byte(`"shards_total":1,"shards_down":0`)) {
			t.Errorf("THEN the cluster section counts its shards, got %s", sec["cluster"])
		}
	})
}

// jsonKeys returns the JSON names a struct type encodes to, embedded
// structs flattened as encoding/json flattens them.
func jsonKeys(typ reflect.Type) []string {
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case f.Anonymous && name == "":
			keys = append(keys, jsonKeys(f.Type)...)
		case name != "-":
			keys = append(keys, name)
		}
	}
	return keys
}

// docTable returns the body rows of the first Markdown table after marker
// in docs/API.md, each row as its cells.
func docTable(t *testing.T, marker string) [][]string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), marker)
	if !ok {
		t.Fatalf("docs/API.md has no %q", marker)
	}
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		rows = append(rows, strings.Split(strings.Trim(line, "|"), "|"))
	}
	if len(rows) < 2 {
		t.Fatalf("docs/API.md has no table after %q", marker)
	}
	return rows[2:] // past the header and its separator
}

// quoted returns the backquoted names of a table cell, in order.
func quoted(cell string) []string {
	var names []string
	for i, part := range strings.Split(cell, "`") {
		if i%2 == 1 {
			names = append(names, part)
		}
	}
	return names
}

// SHALL: docs/API.md's POST /v1/query field table lists exactly the request
// fields the server decodes. The keys are the backquoted names in the first
// column, compared with queryRequest's json tags in both directions, so
// adding or removing a request field fails here until its row is added or
// removed.
func TestWireDocsRequestTable(t *testing.T) {
	documented := map[string]bool{}
	for _, row := range docTable(t, "\n## POST /v1/query\n") {
		for _, key := range quoted(row[0]) {
			documented[key] = true
		}
	}
	fields := map[string]bool{}
	for _, key := range jsonKeys(reflect.TypeOf(queryRequest{})) {
		fields[key] = true
		if !documented[key] {
			t.Errorf("request field `%s` has no row in docs/API.md's POST /v1/query table", key)
		}
	}
	for key := range documented {
		if !fields[key] {
			t.Errorf("docs/API.md's POST /v1/query table documents `%s`, which queryRequest does not decode", key)
		}
	}
}

// SHALL: docs/API.md's trailer table lists exactly the trailer's keys, in
// the encoded order its text promises: the backquoted names of its Field
// column, read top to bottom, are trailerStats' json tags.
func TestWireDocsTrailerTable(t *testing.T) {
	var documented []string
	for _, row := range docTable(t, "3. **Trailer**") {
		documented = append(documented, quoted(row[0])...)
	}
	if want := jsonKeys(reflect.TypeOf(trailerStats{})); !reflect.DeepEqual(documented, want) {
		t.Errorf("docs/API.md's trailer table lists\n  %v, the trailer encodes\n  %v", documented, want)
	}
}

// SHALL: docs/API.md's GET /v1/stats table lists exactly the body's keys.
// Its Section column names every section of statsResponse (a shard entry as
// `cluster` → `shards`), and its Field column the json tags of the
// section's struct, in both directions.
func TestWireDocsStatsTable(t *testing.T) {
	bodies := map[string]any{"engine": pdb.EngineStats{}, "server": serverStats{}, "admission": admissionStats{},
		"cluster": clusterReport{}, "cluster.shards": pdb.ClusterShardStatus{}}
	documented := map[string][]string{}
	section := ""
	for _, row := range docTable(t, "\n## GET /v1/stats\n") {
		if names := quoted(row[0]); len(names) > 0 {
			section = strings.Join(names, ".")
		}
		documented[section] = append(documented[section], quoted(row[1])...)
	}
	for _, key := range jsonKeys(reflect.TypeOf(statsResponse{})) {
		if _, ok := documented[key]; !ok {
			t.Errorf("section `%s` has no rows in docs/API.md's GET /v1/stats table", key)
		}
	}
	for section, keys := range documented {
		body, ok := bodies[section]
		if !ok {
			t.Errorf("docs/API.md's GET /v1/stats table documents section %q, which /v1/stats does not have", section)
			continue
		}
		fields := map[string]bool{}
		for _, key := range jsonKeys(reflect.TypeOf(body)) {
			fields[key] = true
		}
		for _, key := range keys {
			if !fields[key] {
				t.Errorf("docs/API.md's GET /v1/stats table documents `%s` under %s, which %T does not encode", key, section, body)
			}
			delete(fields, key)
		}
		for key := range fields {
			t.Errorf("%T field `%s` has no row under %s in docs/API.md's GET /v1/stats table", body, key, section)
		}
	}
}

// SHALL: docs/API.md's error table lists exactly the error kinds the
// server writes. The kinds are the string literals passed as kind to
// fail, failRetry and failWith, and the Kind of errorResponse literals,
// in the package's non-test sources; the documented ones are the
// backquoted names of the table's `kind` column. Both directions fail.
func TestWireDocsErrorKinds(t *testing.T) {
	documented := map[string]bool{}
	for _, row := range docTable(t, "\n### Errors\n") {
		for _, kind := range quoted(row[1]) {
			documented[kind] = true
		}
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	// kind records the kind expression e; the forwarded parameter kind
	// itself is the callers' business.
	kind := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name == "kind" {
			return
		}
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: error kind is not a string literal", fset.Position(e.Pos()))
			return
		}
		s, _ := strconv.Unquote(lit.Value)
		written[s] = true
	}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 3 &&
					(sel.Sel.Name == "fail" || sel.Sel.Name == "failRetry" || sel.Sel.Name == "failWith") {
					kind(n.Args[3])
				}
			case *ast.CompositeLit:
				if id, ok := n.Type.(*ast.Ident); ok && id.Name == "errorResponse" {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).Name == "Kind" {
							kind(kv.Value)
						}
					}
				}
			}
			return true
		})
	}
	if len(written) == 0 {
		t.Fatal("found no error kinds in the package sources")
	}
	for k := range written {
		if !documented[k] {
			t.Errorf("error kind `%s` has no row in docs/API.md's Errors table", k)
		}
	}
	for k := range documented {
		if !written[k] {
			t.Errorf("docs/API.md's Errors table documents kind `%s`, which the server never writes", k)
		}
	}
}
