package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/pdb"
)

// Panic containment: a handler bug must cost one request, not the
// process — and it must not leak capacity (in-flight gauge, admission
// slots) or skip the request counters.

// scrapeMetrics fetches /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func metricLine(text, name string) (string, bool) {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			return line, true
		}
	}
	return "", false
}

// SHALL: a panicking handler yields a typed 500 ("internal"), increments
// pdb_http_panics_total, balances the in-flight gauge and any admission
// slot held across the panic, and leaves the server serving.
func TestPanicRecoveryTyped500(t *testing.T) {
	srv := testServer(t, Config{MaxInFlight: 2})

	// Inject a panicking route through the same instrument middleware the
	// real routes use; it holds an admission slot exactly the way
	// handleQuery does (deferred release), so the unwind must balance it.
	srv.mux.HandleFunc("GET /boom", srv.instrument("/boom", func(w http.ResponseWriter, r *http.Request) {
		release, _, _, ok := srv.adm.acquire(context.Background())
		if !ok {
			t.Error("admission rejected the panicking request")
			return
		}
		defer release()
		panic("handler bug")
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("panicking handler killed the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("500 body is not the typed error JSON: %v", err)
	}
	if er.Kind != "internal" {
		t.Errorf("error kind = %q, want \"internal\"", er.Kind)
	}

	if got := srv.adm.inFlight(); got != 0 {
		t.Errorf("admission slots leaked across the panic: in-flight = %d, want 0", got)
	}

	// The server keeps serving, and the panic is on the books.
	text := scrapeMetrics(t, ts)
	if line, ok := metricLine(text, "pdb_http_panics_total"); !ok || !strings.HasSuffix(line, " 1") {
		t.Errorf("pdb_http_panics_total = %q, want 1", line)
	}
	if line, ok := metricLine(text, "pdb_http_in_flight_requests"); ok && !strings.HasSuffix(line, " 1") {
		// The /metrics scrape itself is the one in-flight request.
		t.Errorf("in-flight gauge unbalanced after panic: %q", line)
	}
	if !strings.Contains(text, `pdb_http_requests_total{route="/boom",status="500"} 1`) {
		t.Error("panicked request missing from pdb_http_requests_total{status=\"500\"}")
	}
}

// SHALL: a panic after the response started cannot rewrite headers; the
// stream just ends, but the panic still counts and later requests work.
func TestPanicAfterFirstByteStillCounted(t *testing.T) {
	srv := testServer(t, Config{})
	srv.mux.HandleFunc("GET /late-boom", srv.instrument("/late-boom", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "partial")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic("bug after first byte")
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/late-boom")
	if err != nil {
		t.Fatalf("request did not complete: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "partial") {
		t.Errorf("started response rewritten: status %d body %q", resp.StatusCode, body)
	}

	// Still standing, still counting.
	status, _, rows, _ := postQuery(t, ts, `{"program": "`+testProgram+`"}`)
	if status != http.StatusOK || len(rows) == 0 {
		t.Fatalf("server broken after mid-stream panic: status %d, %d rows", status, len(rows))
	}
	if line, ok := metricLine(scrapeMetrics(t, ts), "pdb_http_panics_total"); !ok || !strings.HasSuffix(line, " 1") {
		t.Errorf("pdb_http_panics_total = %q, want 1", line)
	}
}

func getReadyz(t *testing.T, ts *httptest.Server) (int, readyzResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rz readyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	return resp.StatusCode, rz
}

// SHALL: single-node deployments are always ready; /healthz never flips.
func TestReadyzSingleNodeAlwaysReady(t *testing.T) {
	ts := httptest.NewServer(testServer(t, Config{}))
	defer ts.Close()
	status, rz := getReadyz(t, ts)
	if status != http.StatusOK || !rz.Ready {
		t.Errorf("single-node /readyz = %d %+v, want 200 ready", status, rz)
	}
}

// deadPeerServer builds a server whose engine is clustered onto n dead
// shard addresses (deadPeers), with a trip-on-first-failure breaker.
func deadPeerServer(t *testing.T, n int, localFallback bool) *Server {
	t.Helper()
	return obsClusterServer(t, pdb.ClusterOptions{
		Peers:            deadPeers(t, n),
		DialTimeout:      200 * time.Millisecond,
		Retries:          0,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 1,
		ProbeInterval:    -1,
		LocalFallback:    localFallback,
	})
}

// deadPeers returns n loopback addresses nothing listens on (listeners
// opened and immediately closed).
func deadPeers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// obsClusterServer builds a server whose engine is clustered as o says.
// The database is the multi-clause Obs relation, so conf queries
// genuinely sample — and genuinely scatter.
func obsClusterServer(t *testing.T, o pdb.ClusterOptions) *Server {
	t.Helper()
	rows := [][]any{}
	probs := []float64{}
	for s := 0; s < 4; s++ {
		for r := 0; r < 4; r++ {
			rows = append(rows, []any{fmt.Sprintf("s%d", s), r})
			probs = append(probs, 0.3)
		}
	}
	db, err := pdb.NewBuilder().
		Independent("Obs", []string{"Sensor", "Reading"}, rows, probs).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := db.Engine(pdb.WithEngineCluster(o))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// SHALL: when every shard breaker is open and local fallback is off,
// /readyz returns 503 so the balancer drains the node — while /healthz
// stays 200 (restarting the coordinator would not revive the shards).
func TestReadyzAllShardsDown(t *testing.T) {
	ts := httptest.NewServer(deadPeerServer(t, 2, false))
	defer ts.Close()

	// Breakers start closed: the node is (optimistically) ready.
	if status, rz := getReadyz(t, ts); status != http.StatusOK || !rz.Ready {
		t.Fatalf("pre-trip /readyz = %d %+v, want 200 ready", status, rz)
	}

	// One failing query trips both breakers (threshold 1).
	status, _, _, _ := postQuery(t, ts, `{"program": "`+testProgram+`"}`)
	if status == http.StatusOK {
		t.Fatal("query against dead shards succeeded")
	}

	status, rz := getReadyz(t, ts)
	if status != http.StatusServiceUnavailable || rz.Ready {
		t.Errorf("/readyz with all breakers open = %d %+v, want 503 not-ready", status, rz)
	}
	if rz.ShardsTotal != 2 || rz.ShardsDown != 2 {
		t.Errorf("shard accounting = %+v, want 2/2 down", rz)
	}

	// Liveness is about the process, not the cluster.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d during shard outage, want 200", resp.StatusCode)
	}
}

// SHALL: with local fallback enabled, dead shards degrade the node but
// never make it unready — queries still succeed on the coordinator.
func TestReadyzLocalFallbackStaysReady(t *testing.T) {
	ts := httptest.NewServer(deadPeerServer(t, 1, true))
	defer ts.Close()

	status, _, rows, _ := postQuery(t, ts, `{"program": "`+testProgram+`"}`)
	if status != http.StatusOK || len(rows) == 0 {
		t.Fatalf("fallback query: status %d, %d rows", status, len(rows))
	}
	rstatus, rz := getReadyz(t, ts)
	if rstatus != http.StatusOK || !rz.Ready {
		t.Errorf("/readyz with local fallback = %d %+v, want 200 ready", rstatus, rz)
	}
	if !rz.LocalFallback {
		t.Error("readyz body does not advertise local fallback")
	}
	if !rz.Degraded || rz.ShardsDown == 0 {
		t.Errorf("degradation not reported: %+v", rz)
	}
}

// SHALL: a shard that accepts connections but never answers stays open
// while the background prober pings it, so a node whose only shard is
// silent reports not-ready on every poll, not just between probes.
func TestReadyzSilentShardDuringProbes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One goroutine owns every accepted connection: it never writes, and
	// closes them all once the listener is closed.
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		var conns []net.Conn
		for {
			conn, err := ln.Accept()
			if err != nil {
				break
			}
			conns = append(conns, conn)
		}
		for _, conn := range conns {
			conn.Close()
		}
	}()
	defer func() { ln.Close(); <-accepted }()
	srv := obsClusterServer(t, pdb.ClusterOptions{
		Peers:            []string{ln.Addr().String()},
		DialTimeout:      300 * time.Millisecond,
		BreakerThreshold: 1,
		ProbeInterval:    50 * time.Millisecond,
	})
	if healthy, total := srv.eng.ProbeCluster(context.Background()); healthy != 0 || total != 1 {
		t.Fatalf("ProbeCluster = %d of %d healthy, want 0 of 1", healthy, total)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 40; i++ {
		if status, rz := getReadyz(t, ts); status != http.StatusServiceUnavailable || rz.Ready || rz.ShardsDown != 1 {
			t.Fatalf("poll %d: /readyz = %d %+v, want 503 with the silent shard down", i, status, rz)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// SHALL: shards_down counts the shards whose breaker is open, on
// /v1/stats and /readyz alike: a failure below the breaker threshold makes
// the shard unhealthy, not down.
func TestShardsDownOneDefinition(t *testing.T) {
	ts := httptest.NewServer(obsClusterServer(t, pdb.ClusterOptions{
		Peers:            deadPeers(t, 1),
		DialTimeout:      200 * time.Millisecond,
		Retries:          0,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		ProbeInterval:    -1,
	}))
	defer ts.Close()
	if status, _, _, _ := postQuery(t, ts, `{"program": "`+testProgram+`"}`); status == http.StatusOK {
		t.Fatal("query against a dead shard succeeded")
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Cluster struct {
			ShardsDown int `json:"shards_down"`
			Shards     []struct {
				Healthy bool   `json:"healthy"`
				Breaker string `json:"breaker"`
			} `json:"shards"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if sh := stats.Cluster.Shards; len(sh) != 1 || sh[0].Healthy || sh[0].Breaker != "closed" {
		t.Fatalf("after one failure below the threshold: shards %+v, want one unhealthy shard with its breaker closed", sh)
	}
	_, rz := getReadyz(t, ts)
	if stats.Cluster.ShardsDown != 0 || rz.ShardsDown != 0 {
		t.Errorf("shards_down: /v1/stats %d, /readyz %d; want 0 on both", stats.Cluster.ShardsDown, rz.ShardsDown)
	}
}
