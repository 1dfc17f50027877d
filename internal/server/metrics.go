package server

import (
	"repro/internal/metrics"
	"repro/pdb"
)

// serverMetrics holds every instrument the service exports on /metrics.
// HTTP- and quota-level series are pushed from the handlers; engine-level
// series are pulled from pdb.Engine.Stats at scrape time, so the scrape
// always reflects the engine's own cumulative accounting (including work
// done before the metrics endpoint was first hit).
//
// The full series reference — names, types, labels, meanings, suggested
// alerts — lives in docs/OPERATIONS.md; keep the two in sync.
type serverMetrics struct {
	reg *metrics.Registry

	requests     *metrics.CounterVec   // pdb_http_requests_total{route,status}
	duration     *metrics.HistogramVec // pdb_http_request_duration_seconds{route}
	httpInFlight *metrics.Gauge        // pdb_http_in_flight_requests
	rowsStreamed *metrics.Counter      // pdb_http_rows_streamed_total
	httpPanics   *metrics.Counter      // pdb_http_panics_total

	limitErrors      *metrics.CounterVec // pdb_limit_errors_total{resource}
	tenantRequests   *metrics.CounterVec // pdb_tenant_requests_total{tenant}
	tenantRejections *metrics.CounterVec // pdb_tenant_rejections_total{tenant,reason}
	admissionRejects *metrics.CounterVec // pdb_admission_rejected_total{reason}
	admissionWait    *metrics.Histogram  // pdb_admission_wait_seconds
	quotaReloads     *metrics.CounterVec // pdb_quota_reloads_total{outcome}
}

// newServerMetrics registers the service's metric families on reg and
// binds the pull-style engine/admission gauges.
func newServerMetrics(reg *metrics.Registry, eng *pdb.Engine, adm *admission) *serverMetrics {
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("pdb_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "status"),
		duration: reg.HistogramVec("pdb_http_request_duration_seconds",
			"HTTP request latency, by route.", nil, "route"),
		httpInFlight: reg.Gauge("pdb_http_in_flight_requests",
			"HTTP requests currently being served."),
		rowsStreamed: reg.Counter("pdb_http_rows_streamed_total",
			"Result rows streamed to clients."),
		httpPanics: reg.Counter("pdb_http_panics_total",
			"HTTP handlers that panicked and were recovered into a typed 500."),
		limitErrors: reg.CounterVec("pdb_limit_errors_total",
			"Evaluations aborted by a per-request resource limit, by resource (trials, memory).", "resource"),
		tenantRequests: reg.CounterVec("pdb_tenant_requests_total",
			"Query requests per tenant (configured tenants by name; others as \"other\", the empty tenant as \"default\").", "tenant"),
		tenantRejections: reg.CounterVec("pdb_tenant_rejections_total",
			"Requests rejected by tenant scoping or quotas, by reason (forbidden, concurrency, rate).", "tenant", "reason"),
		admissionRejects: reg.CounterVec("pdb_admission_rejected_total",
			"Evaluations shed by global admission control, by reason (queue_full, wait_timeout, canceled).", "reason"),
		admissionWait: reg.Histogram("pdb_admission_wait_seconds",
			"Time evaluations spent queued in admission control before starting.", nil),
		quotaReloads: reg.CounterVec("pdb_quota_reloads_total",
			"Runtime quota-table reloads (SIGHUP or POST /v1/admin/reload), by outcome (ok, error, unconfigured).", "outcome"),
	}

	// Engine counters pulled at scrape time from the engine's cumulative
	// stats (one Stats snapshot per family keeps each sample internally
	// consistent; cross-family skew within one scrape is harmless).
	reg.CounterFunc("pdb_engine_evals_total",
		"Completed evaluations on the shared engine.",
		func() float64 { return float64(eng.Stats().Evals) })
	reg.CounterFunc("pdb_engine_sampled_trials_total",
		"Karp-Luby trials actually sampled across all evaluations.",
		func() float64 { return float64(eng.Stats().SampledTrials) })
	reg.CounterFunc("pdb_engine_reused_trials_total",
		"Trials served from cached estimator snapshots instead of being re-sampled.",
		func() float64 { return float64(eng.Stats().ReusedTrials) })
	reg.CounterFunc("pdb_engine_cache_hits_total",
		"Estimation tasks resumed from the content-keyed estimator cache.",
		func() float64 { return float64(eng.Stats().CacheHits) })
	reg.CounterFunc("pdb_engine_cache_misses_total",
		"Estimator-cache lookups that found nothing resumable.",
		func() float64 { return float64(eng.Stats().CacheMisses) })
	reg.CounterFunc("pdb_engine_cache_evictions_total",
		"Estimator-cache entries evicted by the LRU bound.",
		func() float64 { return float64(eng.Stats().CacheEvictions) })
	reg.CounterFunc("pdb_engine_limit_trips_total",
		"Evaluations aborted by a per-query resource limit, as counted by the engine.",
		func() float64 { return float64(eng.Stats().LimitTrips) })
	reg.CounterFunc("pdb_engine_early_stops_total",
		"Stratified estimation tasks settled before their full trial budget by empirical-Bernstein convergence.",
		func() float64 { return float64(eng.Stats().EarlyStops) })
	reg.CounterFunc("pdb_engine_exact_factored_total",
		"Independent lineage subformulas computed exactly by the factoring pre-pass instead of sampled.",
		func() float64 { return float64(eng.Stats().ExactFactored) })
	reg.CounterFunc("pdb_engine_memo_hits_total",
		"Sub-plans and conf results answered from the engine's sub-plan memo.",
		func() float64 { return float64(eng.Stats().MemoHits) })
	reg.CounterFunc("pdb_engine_memo_evictions_total",
		"Sub-plan memo entries evicted by its LRU bound.",
		func() float64 { return float64(eng.Stats().MemoEvictions) })
	reg.GaugeFunc("pdb_engine_memo_entries",
		"Sub-plans the engine's memo holds.",
		func() float64 { return float64(eng.Stats().MemoEntries) })
	reg.GaugeFunc("pdb_engine_memo_bytes",
		"Bytes the sub-plan memo retains, bounded by the database's footprint.",
		func() float64 { return float64(eng.Stats().MemoBytes) })
	reg.GaugeFunc("pdb_engine_cache_entries",
		"Estimator-cache entries currently held.",
		func() float64 { return float64(eng.Stats().CacheEntries) })
	reg.GaugeFunc("pdb_engine_cache_capacity",
		"Configured estimator-cache entry bound (0 = unbounded).",
		func() float64 { return float64(eng.Stats().CacheCapacity) })
	reg.GaugeFunc("pdb_engine_in_flight_evaluations",
		"Evaluations currently running on the engine.",
		func() float64 { return float64(eng.Stats().InFlight) })

	// Cluster series exist only on a sharded deployment: per-shard RPC,
	// retry, failure, and traffic totals plus a health gauge, all pulled
	// from the coordinator's counters at scrape time, labelled by shard
	// address (the peer set is fixed at boot, so cardinality is bounded).
	if eng.Stats().Cluster != nil {
		perShard := func(read func(pdb.ClusterShardStatus) float64) func() []metrics.LabeledValue {
			return func() []metrics.LabeledValue {
				cs := eng.ClusterStats()
				if cs == nil {
					return nil
				}
				out := make([]metrics.LabeledValue, len(cs.Shards))
				for i, sh := range cs.Shards {
					out[i] = metrics.LabeledValue{Labels: []string{sh.Addr}, Value: read(sh)}
				}
				return out
			}
		}
		shard := []string{"shard"}
		reg.CounterVecFunc("pdb_cluster_shard_rpcs_total",
			"Scatter RPC attempts per shard.", shard,
			perShard(func(s pdb.ClusterShardStatus) float64 { return float64(s.RPCs) }))
		reg.CounterVecFunc("pdb_cluster_shard_retries_total",
			"Retried scatter RPC attempts per shard.", shard,
			perShard(func(s pdb.ClusterShardStatus) float64 { return float64(s.Retries) }))
		reg.CounterVecFunc("pdb_cluster_shard_failures_total",
			"Scatter RPCs that exhausted every retry, per shard.", shard,
			perShard(func(s pdb.ClusterShardStatus) float64 { return float64(s.Failures) }))
		reg.CounterVecFunc("pdb_cluster_shard_sent_bytes_total",
			"Bytes sent to each shard.", shard,
			perShard(func(s pdb.ClusterShardStatus) float64 { return float64(s.BytesSent) }))
		reg.CounterVecFunc("pdb_cluster_shard_recv_bytes_total",
			"Bytes received from each shard.", shard,
			perShard(func(s pdb.ClusterShardStatus) float64 { return float64(s.BytesRecv) }))
		reg.GaugeVecFunc("pdb_cluster_shard_healthy",
			"1 when the shard's most recent RPC succeeded, else 0.", shard,
			perShard(func(s pdb.ClusterShardStatus) float64 {
				if s.Healthy {
					return 1
				}
				return 0
			}))
		reg.GaugeVecFunc("pdb_cluster_shard_breaker_state",
			"Circuit-breaker state per shard: 0 closed, 2 open.", shard,
			perShard(func(s pdb.ClusterShardStatus) float64 {
				if s.Breaker == "open" {
					return 2
				}
				return 0
			}))
		reg.CounterFunc("pdb_cluster_batches_total",
			"Scatter-gather round trips across the shard cluster.",
			func() float64 {
				if cs := eng.ClusterStats(); cs != nil {
					return float64(cs.Batches)
				}
				return 0
			})
		reg.CounterFunc("pdb_cluster_merge_seconds_total",
			"Cumulative time the coordinator spent merging gathered shard counts.",
			func() float64 {
				if cs := eng.ClusterStats(); cs != nil {
					return float64(cs.MergeNanos) / 1e9
				}
				return 0
			})
		clusterCounter := func(read func(*pdb.ClusterStats) int64) func() float64 {
			return func() float64 {
				if cs := eng.ClusterStats(); cs != nil {
					return float64(read(cs))
				}
				return 0
			}
		}
		reg.CounterFunc("pdb_cluster_failovers_total",
			"Dispatches that failed or lied while owing work, relaunched on the next untried shard (or locally).",
			clusterCounter(func(cs *pdb.ClusterStats) int64 { return cs.Failovers }))
		reg.CounterFunc("pdb_cluster_hedges_total",
			"Hedged duplicate dispatches launched against straggling shards.",
			clusterCounter(func(cs *pdb.ClusterStats) int64 { return cs.Hedges }))
		reg.CounterFunc("pdb_cluster_hedge_wins_total",
			"Hedged dispatches whose response arrived before the original's.",
			clusterCounter(func(cs *pdb.ClusterStats) int64 { return cs.HedgeWins }))
		reg.CounterFunc("pdb_cluster_local_fallbacks_total",
			"Chunk ranges sampled on the coordinator itself because no healthy shard remained.",
			clusterCounter(func(cs *pdb.ClusterStats) int64 { return cs.LocalFallbacks }))
		reg.CounterFunc("pdb_cluster_probes_total",
			"Probe pings sent to shards: every shard at boot, then shards whose breaker is open.",
			clusterCounter(func(cs *pdb.ClusterStats) int64 { return cs.Probes }))
		reg.CounterFunc("pdb_cluster_probe_failures_total",
			"Probe pings that went unanswered, leaving the shard's breaker open.",
			clusterCounter(func(cs *pdb.ClusterStats) int64 { return cs.ProbeFailures }))
	}

	reg.GaugeFunc("pdb_admission_in_flight",
		"Evaluations currently holding an admission slot (0 when admission control is disabled).",
		func() float64 { return float64(adm.inFlight()) })
	reg.GaugeFunc("pdb_admission_waiting",
		"Requests currently queued in admission control.",
		func() float64 { return float64(adm.waitingNow()) })
	return m
}
