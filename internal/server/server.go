// Package server implements the HTTP front-end over the public pdb API:
// a long-lived query service whose concurrent requests share one
// pdb.Engine, so the engine's content-keyed estimator cache turns repeated
// and lineage-sharing queries from different clients into cache hits.
//
// Endpoints:
//
//	POST /v1/query   evaluate a UA program; streams NDJSON (one JSON object
//	                 per line: a header with the result schema, one object
//	                 per row with its error bound, then a stats trailer)
//	                 via chunked transfer encoding.
//	GET  /v1/stats   engine + server statistics (cache effectiveness,
//	                 request counters, admission state).
//	GET  /metrics    Prometheus text exposition (internal/metrics) —
//	                 request, latency, quota, admission, and engine series.
//	GET  /healthz    liveness probe.
//	GET  /readyz     readiness probe: 503 when every shard breaker is open
//	                 and local fallback is off (single-node deployments are
//	                 always ready).
//
// Per-request timeouts and resource limits map onto context deadlines and
// the pdb WithMaxTrials / WithMaxMemory options; server-level caps clamp
// whatever the client asks for. Multi-tenant deployments name tenants via
// a configurable request header and bound each tenant with a Quota
// (concurrent queries, sampled-trials rate, per-request caps); a global
// admission controller bounds in-flight evaluations behind a small wait
// queue, so saturation degrades into 429 + Retry-After instead of
// unbounded memory growth. The handler is safe for concurrent use —
// graceful shutdown is the listener owner's job (see cmd/pdbserve).
//
// The wire protocol is documented in docs/API.md and the operational
// surface (flags, metrics, alerting) in docs/OPERATIONS.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/pdb"
)

// Config configures a Server.
type Config struct {
	// Engine is the shared evaluation engine (required).
	Engine *pdb.Engine
	// DefaultTimeout bounds requests that do not set timeout_ms
	// themselves; 0 means no default bound.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts; 0 means unclamped.
	MaxTimeout time.Duration
	// MaxTrials / MaxMemory cap the per-request resource limits. A
	// client's tighter limit is honoured; a looser (or missing) one is
	// clamped to the cap. 0 disables the cap.
	MaxTrials int64
	MaxMemory int64
	// MaxWorkers caps the client-requested per-evaluation worker count
	// (results never depend on it — only goroutine fan-out does). 0
	// selects GOMAXPROCS; negative disables the cap.
	MaxWorkers int
	// SpillDir, when non-empty, turns each request's memory limit into
	// out-of-core execution (pdb.WithSpillDir): over-budget intermediates
	// shed to temp files under this directory and the evaluation completes
	// instead of failing with a memory limit error. Only effective for
	// requests that carry a memory limit (their own, or the MaxMemory cap).
	SpillDir string
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64

	// TenantHeader names the request header carrying the tenant name
	// (e.g. "X-Pdb-Tenant"). Empty disables tenant scoping: every request
	// shares the DefaultQuota bucket (if any).
	TenantHeader string
	// RequireTenant rejects requests without the tenant header with 403
	// when TenantHeader is set.
	RequireTenant bool
	// StrictTenants rejects tenants that have no entry in Quotas with
	// 403 — the allowlist mode. Without it, unknown tenants fall back to
	// DefaultQuota.
	StrictTenants bool
	// Quotas maps tenant names to their quotas.
	Quotas map[string]Quota
	// DefaultQuota applies to tenants without a Quotas entry (and, when
	// TenantHeader is empty, to all traffic). The zero value is
	// unlimited.
	DefaultQuota Quota

	// QuotaReloader, when set, produces a fresh quota table on demand:
	// ReloadQuotas (wired to SIGHUP and POST /v1/admin/reload by
	// cmd/pdbserve) calls it and — if the result validates — swaps the
	// live table atomically. In-flight requests keep the quota they
	// resolved at admission; the next request sees the new table. A
	// reloader error or invalid table leaves the previous quotas in
	// force.
	QuotaReloader func() (map[string]Quota, Quota, error)

	// MaxInFlight bounds globally concurrent evaluations; 0 disables
	// admission control.
	MaxInFlight int
	// AdmissionQueue is how many requests may wait for a slot beyond
	// MaxInFlight before new arrivals are shed immediately (default 0:
	// no queue).
	AdmissionQueue int
	// AdmissionWait bounds the time one request waits in the admission
	// queue (default 1s).
	AdmissionWait time.Duration

	// Registry receives the server's metric families; nil builds a
	// private registry (exposed on /metrics either way).
	Registry *metrics.Registry

	// Logger receives one line per failed request; nil disables logging.
	Logger *log.Logger
}

// Server is the http.Handler of the query service.
type Server struct {
	cfg Config
	eng *pdb.Engine
	mux *http.ServeMux

	met     *serverMetrics
	adm     *admission // nil when admission control is disabled
	tenants *tenantSet
	now     func() time.Time // injectable clock for quota tests
	// bodyReadTimeout is the package constant; tests shorten it.
	bodyReadTimeout time.Duration

	// quotas/defaultQuota are the live quota table, initialized from the
	// Config and swappable at runtime via ReloadQuotas. Reads take the
	// RLock (two map lookups per request); swaps are rare.
	quotaMu      sync.RWMutex
	quotas       map[string]Quota
	defaultQuota Quota

	start time.Time

	requests     atomic.Int64
	failures     atomic.Int64
	rowsStreamed atomic.Int64

	// prepared caches parsed+validated programs by source text, so a hot
	// query skips the parser. Bounded; on overflow an arbitrary entry is
	// dropped (the cache is an accelerator, not a registry).
	prepMu   sync.Mutex
	prepared map[string]*pdb.Query
}

// maxPreparedQueries bounds the prepared-program cache.
const maxPreparedQueries = 256

// bodyReadTimeout bounds reading a query's body. The request's own
// deadline is a field of the body, and the tenant's concurrency slot is
// already held while it is read, so until the body is in nothing else
// bounds a client that trickles it; a body that misses the bound is
// answered 408. A fixed value like cmd/pdbserve's connection timeouts.
const bodyReadTimeout = 10 * time.Second

// New builds a Server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxWorkers == 0 {
		cfg.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if err := validateQuotas(cfg); err != nil {
		return nil, err
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	s := &Server{
		cfg:             cfg,
		eng:             cfg.Engine,
		mux:             http.NewServeMux(),
		tenants:         newTenantSet(),
		now:             time.Now,
		start:           time.Now(),
		bodyReadTimeout: bodyReadTimeout,
		prepared:        make(map[string]*pdb.Query),
		quotas:          cfg.Quotas,
		defaultQuota:    cfg.DefaultQuota,
	}
	if cfg.MaxInFlight > 0 {
		s.adm = newAdmission(cfg.MaxInFlight, cfg.AdmissionQueue, cfg.AdmissionWait)
	}
	s.met = newServerMetrics(cfg.Registry, s.eng, s.adm)
	s.mux.HandleFunc("POST /v1/query", s.instrument("/v1/query", s.handleQuery))
	s.mux.HandleFunc("POST /v1/admin/reload", s.instrument("/v1/admin/reload", s.handleReload))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.Handle("GET /metrics", s.instrumentHandler("/metrics", cfg.Registry.Handler()))
	return s, nil
}

// validateQuotas rejects nonsense quota configuration at construction.
func validateQuotas(cfg Config) error {
	if err := checkQuotaTable(cfg.Quotas, cfg.DefaultQuota); err != nil {
		return err
	}
	if (cfg.RequireTenant || cfg.StrictTenants || len(cfg.Quotas) > 0) && cfg.TenantHeader == "" {
		return errors.New("server: tenant quotas configured but Config.TenantHeader is empty")
	}
	return nil
}

// checkQuotaTable validates one quota table — shared by construction and
// runtime reloads, so a reload can never install bounds construction
// would have rejected.
func checkQuotaTable(quotas map[string]Quota, def Quota) error {
	check := func(name string, q Quota) error {
		if q.MaxConcurrent < 0 || q.TrialsPerSec < 0 || q.TrialsBurst < 0 ||
			q.MaxTrials < 0 || q.MaxMemory < 0 {
			return fmt.Errorf("server: quota %q has negative bounds: %+v", name, q)
		}
		return nil
	}
	if err := check("(default)", def); err != nil {
		return err
	}
	for name, q := range quotas {
		if err := check(name, q); err != nil {
			return err
		}
	}
	return nil
}

// ReloadQuotas swaps the live quota table for a fresh one from
// Config.QuotaReloader. Invalid tables (and reloader errors) are
// rejected and the previous quotas stay in force; a successful swap
// takes effect for the next admitted request — already-admitted requests
// keep the quota they resolved. cmd/pdbserve wires this to SIGHUP and
// the server itself to POST /v1/admin/reload.
func (s *Server) ReloadQuotas() error {
	if s.cfg.QuotaReloader == nil {
		s.met.quotaReloads.With("unconfigured").Inc()
		return errors.New("server: no QuotaReloader configured")
	}
	if err := s.reloadQuotas(); err != nil {
		s.met.quotaReloads.With("error").Inc()
		return err
	}
	s.met.quotaReloads.With("ok").Inc()
	return nil
}

func (s *Server) reloadQuotas() error {
	quotas, def, err := s.cfg.QuotaReloader()
	if err != nil {
		return fmt.Errorf("server: quota reload: %w", err)
	}
	if err := checkQuotaTable(quotas, def); err != nil {
		return err
	}
	if len(quotas) > 0 && s.cfg.TenantHeader == "" {
		return errors.New("server: reloaded per-tenant quotas but Config.TenantHeader is empty")
	}
	s.quotaMu.Lock()
	s.quotas, s.defaultQuota = quotas, def
	s.quotaMu.Unlock()
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter records the response status for instrumentation — and
// whether anything was written at all, which decides if a recovered
// panic can still produce a typed 500 body — while passing Flush through
// to the underlying writer (the query stream needs it).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	// The embedded Write's implicit WriteHeader bypasses our override.
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection (read
// deadlines).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-route request counter, latency
// histogram, in-flight gauge, and panic recovery. A panicking handler
// must not take the process down — it becomes a typed 500 (when no bytes
// have been written yet) and a pdb_http_panics_total increment. Slot
// bookkeeping (admission, tenant quotas) is deferred inside the handlers
// themselves, so it balances during the unwind and a panic can never
// leak capacity.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.httpInFlight.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler { // deliberate stream abort
					s.met.httpInFlight.Dec()
					panic(rec)
				}
				s.met.httpPanics.Inc()
				s.failures.Add(1)
				if s.cfg.Logger != nil {
					stack := make([]byte, 16<<10)
					stack = stack[:runtime.Stack(stack, false)]
					s.cfg.Logger.Printf("panic serving %s: %v\n%s", route, rec, stack)
				}
				sw.status = http.StatusInternalServerError
				if !sw.wrote {
					// Headers are still ours; send the typed error body.
					sw.Header().Set("Content-Type", "application/json")
					sw.WriteHeader(http.StatusInternalServerError)
					_ = json.NewEncoder(sw).Encode(errorResponse{
						Error: "internal server error", Kind: "internal"})
				}
			}
			s.met.httpInFlight.Dec()
			s.met.requests.With(route, strconv.Itoa(sw.status)).Inc()
			s.met.duration.With(route).Observe(time.Since(start).Seconds())
		}()
		h(sw, r)
	}
}

func (s *Server) instrumentHandler(route string, h http.Handler) http.Handler {
	return s.instrument(route, h.ServeHTTP)
}

// queryRequest is the body of POST /v1/query. Zero values mean "use the
// server's defaults".
type queryRequest struct {
	// Program is the UA program to evaluate (required).
	Program string `json:"program"`

	// Accuracy: ε₀/δ for σ̂ decisions, (ε, δ) for standalone conf.
	Epsilon     float64 `json:"epsilon,omitempty"`
	Delta       float64 `json:"delta,omitempty"`
	ConfEpsilon float64 `json:"conf_epsilon,omitempty"`
	ConfDelta   float64 `json:"conf_delta,omitempty"`

	// Determinism and parallelism.
	Seed    int64 `json:"seed,omitempty"`
	Workers int   `json:"workers,omitempty"`

	// Resource limits; the server's (and the tenant's) caps clamp them.
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	MaxTrials      int64 `json:"max_trials,omitempty"`
	MaxMemoryBytes int64 `json:"max_memory_bytes,omitempty"`

	// Exact switches to exact (#P) confidence computation.
	Exact bool `json:"exact,omitempty"`

	// Strata enables stratified Karp-Luby estimation with at most this
	// many clause-weight strata (pdb.WithStrata).
	Strata int `json:"strata,omitempty"`
}

// errorResponse is the body of every non-200 response.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses.
	RetryAfterSeconds int64 `json:"retry_after_seconds,omitempty"`
}

// queryHeader is the first NDJSON line of a streamed result.
type queryHeader struct {
	Columns  []string `json:"columns"`
	Complete bool     `json:"complete"`
}

// queryTrailer is the final NDJSON line: the evaluation's pdb.Stats, whose
// JSON names are declared on the struct, beside what only the response
// knows.
type queryTrailer struct {
	Stats trailerStats `json:"stats"`
}

type trailerStats struct {
	Rows          int     `json:"rows"`
	MaxErrorBound float64 `json:"max_error_bound"`
	pdb.Stats
	ElapsedMS int64 `json:"elapsed_ms"`
}

// rowEncoder appends result rows as NDJSON lines,
//
//	{"row":{…},"error_bound":…[,"singular":true][,"condition":"…"]}
//
// into one reused buffer, byte for byte what encoding/json writes for the
// row as a map[string]any beside those fields: keys in byte order of the
// column names (a result schema never repeats one), floats and strings
// formatted as encoding/json formats them.
type rowEncoder struct {
	order []int    // column positions, in byte order of their names
	keys  [][]byte // the escaped `"name":` of each position in order
	buf   []byte
}

func newRowEncoder(cols []string) *rowEncoder {
	e := &rowEncoder{}
	for _, name := range slices.Sorted(slices.Values(cols)) {
		e.order = append(e.order, slices.Index(cols, name))
		e.keys = append(e.keys, append(appendString(nil, name), ':'))
	}
	return e
}

func (e *rowEncoder) append(row pdb.Row) {
	b := append(e.buf, `{"row":{`...)
	for k, i := range e.order {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, e.keys[k]...)
		switch v := row.At(i).(type) {
		case nil:
			b = append(b, "null"...)
		case bool:
			b = strconv.AppendBool(b, v)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case float64:
			b = appendFloat(b, v)
		case string:
			b = appendString(b, v)
		}
	}
	b = appendFloat(append(b, `},"error_bound":`...), row.ErrorBound())
	if row.Singular() {
		b = append(b, `,"singular":true`...)
	}
	if c := row.Condition(); c != "" {
		b = appendString(append(b, `,"condition":`...), c)
	}
	e.buf = append(b, "}\n"...)
}

// appendFloat formats f as encoding/json does: 'f', or 'e' with e-07
// tidied to e-7 for magnitudes below 1e-6 or from 1e21. NaN and ±Inf, which
// a JSON number cannot carry, become the protobuf JSON mapping's strings.
func appendFloat(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"Infinity"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Infinity"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString quotes s. Printable ASCII that encoding/json leaves as is
// is copied; any other string is encoding/json's to escape (HTML
// characters, U+2028/2029, invalid UTF-8).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// fail writes one JSON error (the response must not have been started).
func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, kind string, err error) {
	s.failWith(w, r, status, kind, err, 0)
}

// failRetry writes a 429-style JSON error with a Retry-After header.
func (s *Server) failRetry(w http.ResponseWriter, r *http.Request, status int, kind string, err error, retryAfter time.Duration) {
	s.failWith(w, r, status, kind, err, retryAfterSeconds(retryAfter))
}

func (s *Server) failWith(w http.ResponseWriter, r *http.Request, status int, kind string, err error, retryAfter int64) {
	s.failures.Add(1)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("%s %s: %s: %v", r.Method, r.URL.Path, kind, err)
	}
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfter, 10))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error(), Kind: kind, RetryAfterSeconds: retryAfter})
}

// clampLimit combines a client limit with a server cap: the tightest
// positive bound wins.
func clampLimit(req, cap int64) int64 {
	switch {
	case cap <= 0:
		return req
	case req <= 0 || req > cap:
		return cap
	default:
		return req
	}
}

// tightestCap combines the server-wide cap with a tenant cap.
func tightestCap(server, tenant int64) int64 {
	switch {
	case server <= 0:
		return tenant
	case tenant <= 0:
		return server
	case tenant < server:
		return tenant
	default:
		return server
	}
}

// resolveTenant maps a request onto (tenant name, quota). ok=false means
// the request is out of scope and must be rejected with 403.
func (s *Server) resolveTenant(r *http.Request) (name string, q Quota, err error) {
	s.quotaMu.RLock()
	defer s.quotaMu.RUnlock()
	if s.cfg.TenantHeader == "" {
		return "", s.defaultQuota, nil
	}
	name = r.Header.Get(s.cfg.TenantHeader)
	if name == "" && s.cfg.RequireTenant {
		return "", Quota{}, fmt.Errorf("missing required tenant header %s", s.cfg.TenantHeader)
	}
	if q, ok := s.quotas[name]; ok {
		return name, q, nil
	}
	if s.cfg.StrictTenants {
		return name, Quota{}, fmt.Errorf("unknown tenant %q", name)
	}
	return name, s.defaultQuota, nil
}

// tenantLabel maps a tenant name onto a bounded metric label: configured
// tenants keep their name, the empty tenant is "default", anything else
// is "other" (so arbitrary header values cannot explode series
// cardinality).
func (s *Server) tenantLabel(name string) string {
	s.quotaMu.RLock()
	_, ok := s.quotas[name]
	s.quotaMu.RUnlock()
	if ok {
		return name
	}
	if name == "" {
		return "default"
	}
	return "other"
}

// prepare parses the program, serving hot programs from the bounded
// prepared-query cache.
func (s *Server) prepare(program string) (*pdb.Query, error) {
	s.prepMu.Lock()
	q, ok := s.prepared[program]
	s.prepMu.Unlock()
	if ok {
		return q, nil
	}
	q, err := s.eng.Prepare(program)
	if err != nil {
		return nil, err
	}
	s.prepMu.Lock()
	if len(s.prepared) >= maxPreparedQueries {
		for k := range s.prepared {
			delete(s.prepared, k)
			break
		}
	}
	s.prepared[program] = q
	s.prepMu.Unlock()
	return q, nil
}

// buildOptions maps a request onto pdb options (invalid values surface as
// *pdb.OptionError when the evaluation applies them). Resource limits are
// clamped by the tightest of the client's ask, the tenant's quota, and
// the server-wide cap.
func (s *Server) buildOptions(req queryRequest, q Quota) []pdb.Option {
	var opts []pdb.Option
	if req.Epsilon != 0 {
		opts = append(opts, pdb.WithEpsilon(req.Epsilon))
	}
	if req.Delta != 0 {
		opts = append(opts, pdb.WithDelta(req.Delta))
	}
	if req.ConfEpsilon != 0 || req.ConfDelta != 0 {
		opts = append(opts, pdb.WithConfBudget(req.ConfEpsilon, req.ConfDelta))
	}
	if req.Seed != 0 {
		opts = append(opts, pdb.WithSeed(req.Seed))
	}
	if req.Workers > 0 {
		// Clamp like the other client-controllable resource knobs: a
		// request may narrow its fan-out but never exceed the server cap
		// (an unset or non-positive count already means GOMAXPROCS).
		w := req.Workers
		if s.cfg.MaxWorkers > 0 && w > s.cfg.MaxWorkers {
			w = s.cfg.MaxWorkers
		}
		opts = append(opts, pdb.WithWorkers(w))
	}
	if req.Strata > 0 {
		opts = append(opts, pdb.WithStrata(req.Strata))
	}
	if n := clampLimit(req.MaxTrials, tightestCap(s.cfg.MaxTrials, q.MaxTrials)); n > 0 {
		opts = append(opts, pdb.WithMaxTrials(n))
	}
	if n := clampLimit(req.MaxMemoryBytes, tightestCap(s.cfg.MaxMemory, q.MaxMemory)); n > 0 {
		opts = append(opts, pdb.WithMaxMemory(n))
		if s.cfg.SpillDir != "" {
			opts = append(opts, pdb.WithSpillDir(s.cfg.SpillDir))
		}
	}
	return opts
}

// requestTimeout resolves the effective timeout for a request.
func (s *Server) requestTimeout(req queryRequest) time.Duration {
	d := time.Duration(req.TimeoutMS) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	start := time.Now()

	// Tenant scoping first: it needs only headers, so out-of-scope and
	// over-quota requests are shed before any body parsing or engine work.
	tenant, quota, terr := s.resolveTenant(r)
	tlabel := s.tenantLabel(tenant)
	s.met.tenantRequests.With(tlabel).Inc()
	if terr != nil {
		s.met.tenantRejections.With(tlabel, "forbidden").Inc()
		s.fail(w, r, http.StatusForbidden, "forbidden", terr)
		return
	}
	releaseTenant, reason, retryAfter, ok := s.tenants.acquire(tenant, quota, s.now())
	if !ok {
		s.met.tenantRejections.With(tlabel, reason).Inc()
		s.failRetry(w, r, http.StatusTooManyRequests, "overloaded",
			fmt.Errorf("tenant %q over %s quota", tenant, reason), retryAfter)
		return
	}
	defer releaseTenant()

	// The tenant slot is held from here on, and the request's own deadline
	// arrives inside the body: bound the read, so a stalled client gives
	// the slot back. The deadline is lifted again before evaluation — the
	// connection's background read (client-disconnect detection) would
	// otherwise trip it and cancel the request.
	var req queryRequest
	rc := http.NewResponseController(w)
	// Writers that cannot set deadlines (recorders) are not connections.
	_ = rc.SetReadDeadline(time.Now().Add(s.bodyReadTimeout))
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, os.ErrDeadlineExceeded) {
			status = http.StatusRequestTimeout
		}
		s.fail(w, r, status, "decode", fmt.Errorf("decoding request body: %w", err))
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	if req.Program == "" {
		s.fail(w, r, http.StatusBadRequest, "decode", errors.New("request has no program"))
		return
	}

	q, err := s.prepare(req.Program)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "parse", err)
		return
	}

	ctx := r.Context()
	if d := s.requestTimeout(req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// Global admission: bound in-flight evaluations, queue briefly, shed
	// the rest — a saturated engine must degrade with 429, not OOM.
	releaseSlot, reason, waited, ok := s.adm.acquire(ctx)
	if waited > 0 || !ok {
		s.met.admissionWait.Observe(waited.Seconds())
	}
	if !ok {
		s.met.admissionRejects.With(reason).Inc()
		if reason == "canceled" {
			// Client went away while queued; nothing useful to write.
			s.failures.Add(1)
			return
		}
		s.failRetry(w, r, http.StatusTooManyRequests, "overloaded",
			fmt.Errorf("server saturated (admission %s)", reason), s.cfg.AdmissionWait)
		return
	}
	defer releaseSlot()

	var res *pdb.Result
	if req.Exact {
		res, err = q.EvalExact(ctx, s.buildOptions(req, quota)...)
	} else {
		res, err = q.Eval(ctx, s.buildOptions(req, quota)...)
	}
	if err != nil {
		var oe *pdb.OptionError
		var le *pdb.LimitError
		switch {
		case errors.As(err, &oe):
			s.fail(w, r, http.StatusBadRequest, "option", err)
		case errors.As(err, &le):
			s.met.limitErrors.With(le.Resource).Inc()
			s.fail(w, r, http.StatusUnprocessableEntity, "limit", err)
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, r, http.StatusGatewayTimeout, "timeout", err)
		case ctx.Err() != nil:
			// Client went away; nothing useful to write.
			s.failures.Add(1)
		default:
			s.fail(w, r, http.StatusInternalServerError, "internal", err)
		}
		return
	}
	st := res.Stats()
	s.tenants.charge(tenant, quota, st.SampledTrials, s.now())

	// Stream the rows: one JSON object per line, flushed in batches, so
	// large results reach the client incrementally over chunked encoding.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(queryHeader{Columns: res.Columns(), Complete: res.Complete()})
	flush()

	rows := newRowEncoder(res.Columns())
	n := 0
	for row := range res.Rows() {
		rows.append(row)
		n++
		s.rowsStreamed.Add(1)
		s.met.rowsStreamed.Inc()
		if n%64 == 0 {
			if _, err := w.Write(rows.buf); err != nil {
				return // client went away mid-stream
			}
			rows.buf = rows.buf[:0]
			flush()
		}
	}
	if _, err := w.Write(rows.buf); err != nil {
		return
	}
	_ = enc.Encode(queryTrailer{Stats: trailerStats{
		Rows:          res.Len(),
		MaxErrorBound: res.MaxErrorBound(),
		Stats:         st,
		ElapsedMS:     time.Since(start).Milliseconds(),
	}})
	flush()
}

// handleReload serves POST /v1/admin/reload: re-run the configured
// QuotaReloader and swap the live quota table. 501 when no reloader is
// configured, 502 when it fails (previous quotas stay in force).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.QuotaReloader == nil {
		s.met.quotaReloads.With("unconfigured").Inc()
		s.fail(w, r, http.StatusNotImplemented, "reload", errors.New("no quota reloader configured"))
		return
	}
	if err := s.ReloadQuotas(); err != nil {
		s.fail(w, r, http.StatusBadGateway, "reload", err)
		return
	}
	s.quotaMu.RLock()
	n := len(s.quotas)
	s.quotaMu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"ok": true, "tenants": n})
}

// statsResponse is the body of GET /v1/stats. The engine and cluster
// sections are the engine's own records, encoded by their struct tags.
type statsResponse struct {
	Engine    pdb.EngineStats `json:"engine"`
	Server    serverStats     `json:"server"`
	Admission admissionStats  `json:"admission"`
	// Cluster is present only on a sharded deployment.
	Cluster *clusterReport `json:"cluster,omitempty"`
}

type serverStats struct {
	Requests     int64 `json:"requests"`
	Failures     int64 `json:"failures"`
	RowsStreamed int64 `json:"rows_streamed"`
	UptimeMS     int64 `json:"uptime_ms"`
}

type admissionStats struct {
	Enabled     bool `json:"enabled"`
	MaxInFlight int  `json:"max_in_flight,omitempty"`
	InFlight    int  `json:"in_flight"`
	Waiting     int  `json:"waiting"`
}

// clusterReport is the coordinator's snapshot beside two counts derived
// from it: the configured shards, and those whose breaker is open.
type clusterReport struct {
	*pdb.ClusterStats
	ShardsTotal int `json:"shards_total"`
	ShardsDown  int `json:"shards_down"`
}

// shardsDown counts the shards whose breaker is open: shards_down on both
// /v1/stats and /readyz.
func shardsDown(cs *pdb.ClusterStats) (n int) {
	for _, sh := range cs.Shards {
		if sh.Breaker == "open" {
			n++
		}
	}
	return n
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Engine: s.eng.Stats(),
		Server: serverStats{
			Requests:     s.requests.Load(),
			Failures:     s.failures.Load(),
			RowsStreamed: s.rowsStreamed.Load(),
			UptimeMS:     time.Since(s.start).Milliseconds(),
		},
		Admission: admissionStats{
			Enabled:     s.adm != nil,
			MaxInFlight: s.cfg.MaxInFlight,
			InFlight:    s.adm.inFlight(),
			Waiting:     s.adm.waitingNow(),
		},
	}
	if cs := resp.Engine.Cluster; cs != nil {
		resp.Cluster = &clusterReport{ClusterStats: cs, ShardsTotal: len(cs.Shards), ShardsDown: shardsDown(cs)}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, "{\"ok\":true}\n")
}

// readyzResponse is the body of GET /readyz.
type readyzResponse struct {
	Ready         bool `json:"ready"`
	Degraded      bool `json:"degraded,omitempty"`
	ShardsTotal   int  `json:"shards_total,omitempty"`
	ShardsDown    int  `json:"shards_down,omitempty"`
	LocalFallback bool `json:"local_fallback,omitempty"`
}

// handleReadyz is the load-balancer readiness probe. Liveness (/healthz)
// never flips on shard trouble — restarting the coordinator won't revive
// a dead shard — but readiness does: when every shard breaker is open
// and local fallback is off, new queries can only fail, so the node asks
// to be drained with a 503. A partially-degraded cluster stays ready
// (failover reroutes around the tripped shards) and reports degraded
// instead.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyzResponse{Ready: s.eng.ClusterReady()}
	if cs := s.eng.ClusterStats(); cs != nil {
		resp.ShardsTotal = len(cs.Shards)
		resp.ShardsDown = shardsDown(cs)
		resp.Degraded = resp.ShardsDown > 0
		resp.LocalFallback = cs.LocalFallback
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(resp)
}
