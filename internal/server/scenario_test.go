package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/pdb"
)

// Spec scenarios for the query service, written SHALL / WHEN / THEN
// against the HTTP surface: stratified-estimation request fields riding
// through to the engine and back out through the trailer and stats
// endpoints, and the tenant-quota rejection paths.

// hardServer builds a server whose fixture has one hard 12-clause
// lineage component per conf group (a product shares variables across
// clauses), so stratified requests genuinely sample rather than being
// collapsed to exact arithmetic by the factoring pre-pass.
func hardServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	probsR := []float64{0.9, 0.6, 0.05, 0.02, 0.002, 0.0005}
	rowsR := make([][]any, len(probsR))
	for i := range probsR {
		rowsR[i] = []any{int64(i), int64(i / 2)}
	}
	db, err := pdb.NewBuilder().
		Independent("R", []string{"ID", "Grp"}, rowsR, probsR).
		Independent("S", []string{"SID"},
			[][]any{{int64(1)}, {int64(2)}, {int64(3)}, {int64(4)}, {int64(5)}, {int64(6)}},
			[]float64{0.8, 0.3, 0.04, 0.01, 0.002, 0.001}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := db.Engine()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

const hardProgram = `conf as P (project[Grp](product(R, S)));`

// SHALL: the strata request field reaches the engine and the trailer
// reports the stratified accounting. WHEN a query runs with "strata" set
// over hard lineage. THEN the response streams every row, the trailer
// shows strata and sampled trials, a repeated request replays identically
// from the cache, and /v1/stats plus /metrics expose the cumulative
// early-stop and factoring counters.
func TestScenarioStratifiedQueryOverHTTP(t *testing.T) {
	ts := httptest.NewServer(hardServer(t, Config{}))
	defer ts.Close()

	body := fmt.Sprintf(`{"program": %q, "seed": 11, "strata": 8, "conf_epsilon": 0.05, "conf_delta": 0.05}`, hardProgram)
	status, _, rows, tr := postQuery(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 groups", len(rows))
	}
	if tr.Stats.Strata == 0 {
		t.Error("trailer should report strata > 0 for a stratified query")
	}
	if tr.Stats.SampledTrials == 0 {
		t.Error("hard lineage should have sampled trials")
	}

	status2, _, rows2, tr2 := postQuery(t, ts, body)
	if status2 != http.StatusOK {
		t.Fatalf("second status = %d", status2)
	}
	if tr2.Stats.SampledTrials != 0 || tr2.Stats.CacheHits == 0 {
		t.Errorf("repeat: sampled=%d hits=%d, want exact cached replay",
			tr2.Stats.SampledTrials, tr2.Stats.CacheHits)
	}
	for i := range rows2 {
		if rows2[i].Row["P"] != rows[i].Row["P"] {
			t.Errorf("row %d: warm P %v != cold P %v", i, rows2[i].Row["P"], rows[i].Row["P"])
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Engine.EarlyStops < 0 || stats.Engine.ExactFactored < 0 {
		t.Errorf("engine stats missing stratified counters: %+v", stats.Engine)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, series := range []string{"pdb_engine_early_stops_total", "pdb_engine_exact_factored_total"} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

// SHALL: out-of-domain stratified options are rejected before any work.
// WHEN a request carries a strata value outside its domain. THEN the
// service answers 400 with kind "option".
func TestScenarioStratifiedOptionRejectedOverHTTP(t *testing.T) {
	ts := httptest.NewServer(hardServer(t, Config{}))
	defer ts.Close()
	for name, body := range map[string]string{
		"strata too large": fmt.Sprintf(`{"program": %q, "strata": 5000}`, hardProgram),
	} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: decoding error body: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Kind != "option" {
			t.Errorf("%s: status %d kind %q, want 400 option", name, resp.StatusCode, er.Kind)
		}
	}
}

// SHALL: tenant scoping and quotas guard the stratified path like any
// other. WHEN an unknown tenant sends a stratified query in strict mode,
// and a known tenant overdraws its trial bucket with stratified queries.
// THEN the service answers 403 forbidden and 429 overloaded respectively,
// and the allowed, in-quota tenant keeps getting 200s.
func TestScenarioTenantQuotasGuardStratifiedQueries(t *testing.T) {
	srv := hardServer(t, Config{
		TenantHeader:  tenantHdr,
		RequireTenant: true,
		StrictTenants: true,
		Quotas: map[string]Quota{
			"metered": {TrialsPerSec: 0.5, TrialsBurst: 1},
			"open":    {},
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := fmt.Sprintf(`{"program": %q, "seed": 11, "strata": 4}`, hardProgram)

	if status, er, _ := postAs(t, ts, "stranger", body); status != http.StatusForbidden || er.Kind != "forbidden" {
		t.Errorf("unknown tenant: status %d kind %q, want 403 forbidden", status, er.Kind)
	}
	if status, _, _ := postAs(t, ts, "metered", body); status != http.StatusOK {
		t.Fatalf("first metered query: status %d, want 200", status)
	}
	status, er, retry := postAs(t, ts, "metered", body)
	if status != http.StatusTooManyRequests || er.Kind != "overloaded" {
		t.Errorf("overdrawn tenant: status %d kind %q, want 429 overloaded", status, er.Kind)
	}
	if retry == "" {
		t.Error("429 response should carry Retry-After")
	}
	if status, _, _ := postAs(t, ts, "open", body); status != http.StatusOK {
		t.Errorf("in-quota tenant during metered's debt: status %d, want 200", status)
	}
}
