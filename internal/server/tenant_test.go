package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const tenantHdr = "X-Pdb-Tenant"

// postAs sends one query as the given tenant and returns status, decoded
// error (when non-200), and the Retry-After header.
func postAs(t *testing.T, ts *httptest.Server, tenant, body string) (int, errorResponse, string) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(tenantHdr, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("decoding error body: %v", err)
		}
	} else {
		// Drain the stream so the handler finishes (and charges quotas).
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
	}
	return resp.StatusCode, er, resp.Header.Get("Retry-After")
}

// TestTenantForbidden covers the 403 scoping paths: a required-but-missing
// tenant header and an unknown tenant in strict (allowlist) mode.
func TestTenantForbidden(t *testing.T) {
	srv := testServer(t, Config{
		TenantHeader:  tenantHdr,
		RequireTenant: true,
		StrictTenants: true,
		Quotas:        map[string]Quota{"alpha": {}},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := fmt.Sprintf(`{"program": %q, "seed": 7}`, testProgram)

	status, er, _ := postAs(t, ts, "", body)
	if status != http.StatusForbidden || er.Kind != "forbidden" {
		t.Errorf("missing header: status %d kind %q, want 403 forbidden", status, er.Kind)
	}
	status, er, _ = postAs(t, ts, "stranger", body)
	if status != http.StatusForbidden || er.Kind != "forbidden" {
		t.Errorf("unknown tenant: status %d kind %q, want 403 forbidden", status, er.Kind)
	}
	if status, _, _ := postAs(t, ts, "alpha", body); status != http.StatusOK {
		t.Errorf("allowed tenant: status %d, want 200", status)
	}
}

// TestTenantRateQuotaIsolation is the acceptance-criteria scenario: a
// tenant that overdraws its trials/sec bucket gets 429 + Retry-After
// while another tenant's queries keep succeeding.
func TestTenantRateQuotaIsolation(t *testing.T) {
	srv := testServer(t, Config{
		TenantHeader: tenantHdr,
		Quotas: map[string]Quota{
			"bursty": {TrialsPerSec: 0.5, TrialsBurst: 1},
			"calm":   {},
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := fmt.Sprintf(`{"program": %q, "seed": 7}`, testProgram)

	// First query is admitted (the bucket may overdraw once) and leaves
	// the tenant deep in debt — it sampled thousands of trials against a
	// 0.5/s refill.
	if status, _, _ := postAs(t, ts, "bursty", body); status != http.StatusOK {
		t.Fatalf("first bursty query: status %d, want 200", status)
	}
	status, er, retry := postAs(t, ts, "bursty", body)
	if status != http.StatusTooManyRequests || er.Kind != "overloaded" {
		t.Fatalf("second bursty query: status %d kind %q, want 429 overloaded", status, er.Kind)
	}
	if n, err := strconv.ParseInt(retry, 10, 64); err != nil || n < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", retry)
	}
	if er.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1", er.RetryAfterSeconds)
	}

	// The other tenant is untouched; so is a tenant-less request (which
	// falls back to the unlimited default quota).
	for _, tenant := range []string{"calm", ""} {
		if status, _, _ := postAs(t, ts, tenant, body); status != http.StatusOK {
			t.Errorf("tenant %q during bursty's debt: status %d, want 200", tenant, status)
		}
	}
}

// TestTenantConcurrencyQuota saturates one tenant's concurrency slot
// (white-box, so the test is deterministic) and checks the 429 plus the
// other tenant's isolation.
func TestTenantConcurrencyQuota(t *testing.T) {
	quotas := map[string]Quota{
		"small": {MaxConcurrent: 1},
		"big":   {MaxConcurrent: 8},
	}
	srv := testServer(t, Config{TenantHeader: tenantHdr, Quotas: quotas})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := fmt.Sprintf(`{"program": %q, "seed": 7}`, testProgram)

	release, reason, _, ok := srv.tenants.acquire("small", quotas["small"], time.Now())
	if !ok {
		t.Fatalf("setup acquire failed: %s", reason)
	}
	status, er, retry := postAs(t, ts, "small", body)
	if status != http.StatusTooManyRequests || er.Kind != "overloaded" || retry == "" {
		t.Errorf("saturated tenant: status %d kind %q retry %q, want 429 overloaded", status, er.Kind, retry)
	}
	if status, _, _ := postAs(t, ts, "big", body); status != http.StatusOK {
		t.Errorf("other tenant while small is saturated: status %d, want 200", status)
	}
	release()
	if status, _, _ := postAs(t, ts, "small", body); status != http.StatusOK {
		t.Errorf("small after release: status %d, want 200", status)
	}
}

// tenantInFlight reads a tenant's held concurrency slots.
func tenantInFlight(s *Server, name string) int {
	s.tenants.mu.Lock()
	defer s.tenants.mu.Unlock()
	if st := s.tenants.states[name]; st != nil {
		return st.inFlight
	}
	return 0
}

// TestStalledBodyReleasesTenantSlot pins the body read deadline: a client
// that sends its headers and then stalls mid-body holds its tenant's only
// concurrency slot just until the body read deadline, is answered
// 408/decode, and the tenant's next request is admitted. (Without the
// deadline the first request would sit in the JSON decoder, slot held, for
// as long as the client cared to keep the connection open.)
func TestStalledBodyReleasesTenantSlot(t *testing.T) {
	srv := testServer(t, Config{
		TenantHeader: tenantHdr,
		Quotas:       map[string]Quota{"small": {MaxConcurrent: 1}},
	})
	srv.bodyReadTimeout = 150 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := fmt.Sprintf(`{"program": %q, "seed": 7}`, testProgram)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Complete headers promising the whole body, then only its first bytes.
	fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: pdb\r\n%s: small\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		tenantHdr, len(body), body[:10])

	// While the body is outstanding the slot is taken.
	deadline := time.Now().Add(5 * time.Second)
	for tenantInFlight(srv, "small") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never acquired its tenant slot")
		}
		time.Sleep(time.Millisecond)
	}
	if status, er, _ := postAs(t, ts, "small", body); status != http.StatusTooManyRequests {
		t.Fatalf("second request while the first holds the slot: status %d (%+v), want 429", status, er)
	}

	// The stalled request times out of the body read on its own.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the stalled request's response: %v", err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	if resp.StatusCode != http.StatusRequestTimeout || er.Kind != "decode" {
		t.Errorf("stalled body: status %d kind %q, want 408 decode", resp.StatusCode, er.Kind)
	}
	// The response is written inside the handler, the slot released when it
	// returns: wait for the release rather than racing it.
	for tenantInFlight(srv, "small") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("tenant slot still held after the body read timed out")
		}
		time.Sleep(time.Millisecond)
	}
	if status, er, _ := postAs(t, ts, "small", body); status != http.StatusOK {
		t.Errorf("next request of the tenant: status %d (%+v), want 200", status, er)
	}
}

// TestAdmissionSaturation covers the global admission controller: with
// the only slot held and no queue, requests shed immediately with 429 +
// Retry-After; with the slot free again they succeed.
func TestAdmissionSaturation(t *testing.T) {
	srv := testServer(t, Config{MaxInFlight: 1, AdmissionWait: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := fmt.Sprintf(`{"program": %q, "seed": 7}`, testProgram)

	release, _, _, ok := srv.adm.acquire(context.Background())
	if !ok {
		t.Fatal("setup acquire failed")
	}
	status, er, retry := postAs(t, ts, "", body)
	if status != http.StatusTooManyRequests || er.Kind != "overloaded" || retry == "" {
		t.Errorf("saturated: status %d kind %q retry %q, want 429 overloaded + Retry-After", status, er.Kind, retry)
	}
	release()
	if status, _, _ := postAs(t, ts, "", body); status != http.StatusOK {
		t.Errorf("after release: status %d, want 200", status)
	}
}

// TestAdmissionQueueWaits covers the wait-queue path: a queued request is
// admitted once the slot frees within the wait window.
func TestAdmissionQueueWaits(t *testing.T) {
	srv := testServer(t, Config{MaxInFlight: 1, AdmissionQueue: 1, AdmissionWait: 5 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := fmt.Sprintf(`{"program": %q, "seed": 7}`, testProgram)

	release, _, _, ok := srv.adm.acquire(context.Background())
	if !ok {
		t.Fatal("setup acquire failed")
	}
	done := make(chan int, 1)
	go func() {
		status, _, _ := postAs(t, ts, "", body)
		done <- status
	}()
	// Wait until the request is queued, then free the slot.
	deadline := time.Now().Add(2 * time.Second)
	for srv.adm.waitingNow() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.adm.waitingNow() != 1 {
		t.Fatal("request never queued")
	}
	release()
	if status := <-done; status != http.StatusOK {
		t.Errorf("queued request: status %d, want 200", status)
	}
}

// expositionLine matches one valid text-exposition sample line.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

// scrape fetches /metrics, validates every line parses as text
// exposition format, and returns the samples.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricsEndpoint is the acceptance-criteria check for /metrics:
// valid Prometheus text exposition whose request, trial, and cache series
// move when queries run.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t, Config{TenantHeader: tenantHdr, Quotas: map[string]Quota{"alpha": {}}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := fmt.Sprintf(`{"program": %q, "seed": 7}`, testProgram)

	before := scrape(t, ts)
	if before[`pdb_http_requests_total{route="/v1/query",status="200"}`] != 0 {
		t.Errorf("fresh server reports served queries: %v", before)
	}

	if status, _, _ := postAs(t, ts, "alpha", body); status != http.StatusOK {
		t.Fatalf("query failed: %d", status)
	}
	mid := scrape(t, ts)
	checks := []struct {
		key  string
		want float64
	}{
		{`pdb_http_requests_total{route="/v1/query",status="200"}`, 1},
		{`pdb_http_request_duration_seconds_count{route="/v1/query"}`, 1},
		{`pdb_tenant_requests_total{tenant="alpha"}`, 1},
		{`pdb_http_rows_streamed_total`, 4},
		{`pdb_engine_evals_total`, 1},
	}
	for _, c := range checks {
		if mid[c.key] != c.want {
			t.Errorf("after one query: %s = %v, want %v", c.key, mid[c.key], c.want)
		}
	}
	if mid["pdb_engine_sampled_trials_total"] <= 0 {
		t.Errorf("sampled trials not exported: %v", mid["pdb_engine_sampled_trials_total"])
	}
	if mid["pdb_engine_cache_entries"] <= 0 || mid["pdb_engine_cache_capacity"] <= 0 {
		t.Errorf("cache gauges: entries=%v capacity=%v",
			mid["pdb_engine_cache_entries"], mid["pdb_engine_cache_capacity"])
	}

	// A repeated query moves the reuse counters and the request counter.
	if status, _, _ := postAs(t, ts, "alpha", body); status != http.StatusOK {
		t.Fatalf("second query failed: %d", status)
	}
	after := scrape(t, ts)
	if after[`pdb_http_requests_total{route="/v1/query",status="200"}`] != 2 {
		t.Errorf("request counter did not move: %v", after[`pdb_http_requests_total{route="/v1/query",status="200"}`])
	}
	if after["pdb_engine_reused_trials_total"] <= 0 || after["pdb_engine_cache_hits_total"] <= 0 {
		t.Errorf("reuse series did not move: reused=%v hits=%v",
			after["pdb_engine_reused_trials_total"], after["pdb_engine_cache_hits_total"])
	}

	// A limit abort shows up on the limit series (and as a 422).
	limited := fmt.Sprintf(`{"program": %q, "max_trials": 10, "conf_epsilon": 0.01, "conf_delta": 0.01}`, testProgram)
	if status, _, _ := postAs(t, ts, "alpha", limited); status != http.StatusUnprocessableEntity {
		t.Fatalf("limited query: status %d, want 422", status)
	}
	final := scrape(t, ts)
	if final[`pdb_limit_errors_total{resource="trials"}`] != 1 {
		t.Errorf("limit error not counted: %v", final[`pdb_limit_errors_total{resource="trials"}`])
	}
	if final[`pdb_http_requests_total{route="/v1/query",status="422"}`] != 1 {
		t.Errorf("422 not labelled: %v", final)
	}
	if final["pdb_engine_limit_trips_total"] != 1 {
		t.Errorf("engine limit trips = %v, want 1", final["pdb_engine_limit_trips_total"])
	}
}

// TestQuotaHammerRace hammers the handler from many goroutines across
// two quota-bounded tenants plus admission control — run under -race this
// vets the tenant buckets, the admission queue, and the metrics write
// path together. Outcomes must be only 200 or 429, and both tenants must
// recover to 200 afterwards.
func TestQuotaHammerRace(t *testing.T) {
	srv := testServer(t, Config{
		DefaultTimeout: 30 * time.Second,
		TenantHeader:   tenantHdr,
		Quotas: map[string]Quota{
			"a": {MaxConcurrent: 2, TrialsPerSec: 1e9},
			"b": {MaxConcurrent: 8},
		},
		MaxInFlight:    4,
		AdmissionQueue: 16,
		AdmissionWait:  10 * time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const goroutines, iters = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b"}[g%2]
			for i := 0; i < iters; i++ {
				body := fmt.Sprintf(`{"program": %q, "seed": %d}`, testProgram, i%2+1)
				req, err := http.NewRequest("POST", ts.URL+"/v1/query", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set(tenantHdr, tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("tenant %s: status %d", tenant, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	body := fmt.Sprintf(`{"program": %q, "seed": 1}`, testProgram)
	for _, tenant := range []string{"a", "b"} {
		if status, _, _ := postAs(t, ts, tenant, body); status != http.StatusOK {
			t.Errorf("tenant %s after hammer: status %d, want 200", tenant, status)
		}
	}
	// The exposition page stays parseable after concurrent writes.
	scrape(t, ts)
}

// TestQuotaConfigValidation pins construction-time rejection of nonsense
// quota configs.
func TestQuotaConfigValidation(t *testing.T) {
	eng := testServer(t, Config{}).eng
	if _, err := New(Config{Engine: eng, Quotas: map[string]Quota{"a": {MaxConcurrent: -1}}, TenantHeader: tenantHdr}); err == nil {
		t.Error("negative quota accepted")
	}
	if _, err := New(Config{Engine: eng, Quotas: map[string]Quota{"a": {}}}); err == nil {
		t.Error("quotas without a tenant header accepted")
	}
}
