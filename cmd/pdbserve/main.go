// Command pdbserve runs the probabilistic-database query service: an HTTP
// front-end (see internal/server) over one long-lived pdb.Engine, so all
// clients share a content-keyed Karp–Luby cache and repeated queries
// resume each other's estimation work.
//
// Relations are loaded from CSV files (header row first), either
// explicitly or from a directory:
//
//	pdbserve -table people=data/people.csv -table obs=data/obs.csv
//	pdbserve -datadir examples/data            # every *.csv and *.pdbs, named by stem
//
// Relations may also be pdbstore columnar files (docs/STORAGE.md; produce
// them with pdbcli convert) — formats are detected by content, and -format
// csv|pdbstore restricts what -datadir picks up. -spill-dir enables
// out-of-core evaluation for memory-limited requests: instead of failing
// with a memory limit error, over-budget intermediates spill to disk and
// the query completes with bit-identical results.
//
// Query it:
//
//	curl -s localhost:8080/v1/query -d '{"program":"conf (repairkey[id @ w](obs));"}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics      # Prometheus text exposition
//
// Multi-tenant fleets name tenants via a request header and bound each
// with a quota; global admission control caps concurrent evaluations:
//
//	pdbserve -datadir data -tenant-header X-Pdb-Tenant \
//	    -tenant team-a=max_concurrent:4,trials_per_sec:200000 \
//	    -default-quota max_concurrent:2 \
//	    -max-inflight 8 -admission-queue 16 -admission-wait 2s
//
// Over-quota and shed requests get 429 with a Retry-After header; see
// docs/OPERATIONS.md for the full flag, quota, and metrics reference and
// docs/API.md for the wire protocol.
//
// Horizontal sharding splits one service across processes. Shard servers
// hold no data and speak a binary TCP protocol, the coordinator keeps the
// whole HTTP surface (tenancy, quotas, admission) and scatters sampling
// work to them — results are bit-identical to a single-node run:
//
//	pdbserve -shard -addr :9101
//	pdbserve -shard -addr :9102
//	pdbserve -datadir data -coordinator -peers localhost:9101,localhost:9102
//
// The coordinator tolerates shard failure without changing a single
// output bit: per-shard circuit breakers (-breaker-threshold) quarantine
// dead shards, chunk ranges fail over to survivors, background probes
// (-probe-interval) re-admit recovered shards, stragglers are hedged
// (-hedge-after), and -local-fallback lets the coordinator sample
// locally when every shard is gone. GET /readyz turns 503 when no shard
// is healthy and local fallback is off.
//
// Quotas can be reloaded at runtime without a restart: put name=spec
// lines in a file (tenant "default" sets the default quota), point
// -quota-file at it, and send SIGHUP or POST /v1/admin/reload.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/urel"
	"repro/pdb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pdbserve:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("pdbserve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	datadir := fs.String("datadir", "", "load every relation file in this directory, named by file stem (see -format)")
	format := fs.String("format", "auto", "-datadir formats: auto (*.csv and *.pdbs), csv, or pdbstore; -table files are content-sniffed regardless")
	spillDir := fs.String("spill-dir", "", "spill directory for out-of-core evaluation of memory-limited requests (empty disables)")
	cacheSize := fs.Int("cache", 4096, "engine estimator-cache entries (LRU beyond)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request evaluation timeout (0 disables)")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "upper bound on client-requested timeouts (0 disables)")
	maxTrials := fs.Int64("max-trials", 0, "per-request sampled-trials cap (0 disables)")
	maxMemory := fs.Int64("max-memory", 0, "per-request materialized-bytes cap (0 disables)")
	maxWorkers := fs.Int("max-workers", 0, "cap on client-requested workers (0 = GOMAXPROCS, negative disables)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	tenantHeader := fs.String("tenant-header", "", "request header naming the tenant (e.g. X-Pdb-Tenant); empty disables tenant scoping")
	requireTenant := fs.Bool("require-tenant", false, "reject requests without the tenant header (403)")
	strictTenants := fs.Bool("strict-tenants", false, "reject tenants without a -tenant entry (403, allowlist mode)")
	shard := fs.Bool("shard", false, "run as a cluster shard server (binary TCP protocol on -addr; no relations loaded)")
	shardWorkers := fs.Int("shard-workers", 0, "shard sampling workers (0 = GOMAXPROCS)")
	coordinator := fs.Bool("coordinator", false, "scatter sampling work across the -peers shard servers")
	peersFlag := fs.String("peers", "", "comma-separated shard addresses (host:port); implies -coordinator")
	clusterTimeout := fs.Duration("cluster-timeout", 0, "per-shard, per-attempt RPC deadline (0 = 2m)")
	clusterRetries := fs.Int("cluster-retries", 2, "retries per failed shard RPC before failing over")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive exhausted-retry failures that trip a shard's circuit breaker (0 = default 3, negative disables)")
	probeInterval := fs.Duration("probe-interval", 0, "how often tripped shards are probed for re-admission (0 = default 2s, negative disables)")
	hedgeAfter := fs.Duration("hedge-after", 0, "delay before hedging a straggling shard RPC to another shard (0 = adaptive p95-based, negative disables)")
	localFallback := fs.Bool("local-fallback", false, "sample chunks on the coordinator itself when no healthy shard remains (bit-identical, but competes with HTTP serving for CPU)")
	quotaFile := fs.String("quota-file", "", "file of name=quota-spec lines (tenant \"default\" sets the default quota); reloaded on SIGHUP or POST /v1/admin/reload")
	maxInFlight := fs.Int("max-inflight", 0, "global cap on concurrent evaluations (0 disables admission control)")
	admissionQueue := fs.Int("admission-queue", 0, "requests that may wait for an evaluation slot before new arrivals get 429")
	admissionWait := fs.Duration("admission-wait", time.Second, "longest one request waits in the admission queue")
	quotas := map[string]server.Quota{}
	fs.Func("tenant", "tenant quota as name="+quotaSpecSyntax+" (repeatable)", func(v string) error {
		name, spec, ok := strings.Cut(v, "=")
		if !ok || name == "" {
			return fmt.Errorf("-tenant wants name=spec, got %q", v)
		}
		q, err := parseQuota(spec)
		if err != nil {
			return fmt.Errorf("-tenant %s: %w", name, err)
		}
		quotas[name] = q
		return nil
	})
	var defaultQuota server.Quota
	fs.Func("default-quota", "quota for tenants without a -tenant entry, as "+quotaSpecSyntax, func(v string) error {
		q, err := parseQuota(v)
		if err != nil {
			return fmt.Errorf("-default-quota: %w", err)
		}
		defaultQuota = q
		return nil
	})
	tables := map[string]string{}
	fs.Func("table", "relation as name=path.csv (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("-table wants name=path, got %q", v)
		}
		tables[name] = path
		return nil
	})
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "pdbserve: ", log.LstdFlags)
	if *shard {
		return runShard(*addr, *shardWorkers, logger)
	}
	peers := splitPeers(*peersFlag)
	if *coordinator && len(peers) == 0 {
		return errors.New("-coordinator needs -peers host:port[,host:port...]")
	}

	var globs []string
	switch *format {
	case "auto":
		globs = []string{"*.csv", "*.pdbs"}
	case "csv":
		globs = []string{"*.csv"}
	case "pdbstore":
		globs = []string{"*.pdbs"}
	default:
		return fmt.Errorf("-format must be auto, csv, or pdbstore; got %q", *format)
	}
	if *datadir != "" {
		for _, g := range globs {
			matches, err := filepath.Glob(filepath.Join(*datadir, g))
			if err != nil {
				return err
			}
			for _, m := range matches {
				name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(m), ".csv"), ".pdbs")
				if _, dup := tables[name]; !dup {
					tables[name] = m
				}
			}
		}
	}
	if len(tables) == 0 {
		return errors.New("no relations: pass -table name=path.csv and/or -datadir dir")
	}

	// -quota-file supersedes any -tenant/-default-quota flags and becomes
	// the reload source.
	var reloader func() (map[string]server.Quota, server.Quota, error)
	if *quotaFile != "" {
		reloader = func() (map[string]server.Quota, server.Quota, error) {
			return parseQuotaFile(*quotaFile)
		}
		q, dq, err := reloader()
		if err != nil {
			return err
		}
		quotas, defaultQuota = q, dq
	}

	if *spillDir != "" {
		// A killed predecessor never ran Spill.Close; its directories are
		// the ones whose recorded owner is gone.
		if n := urel.SweepSpills(*spillDir); n > 0 {
			logger.Printf("spill sweep: removed %d dead-owner directories under %s", n, *spillDir)
		}
	}
	db, err := pdb.Open(tables)
	if err != nil {
		return err
	}
	engOpts := []pdb.EngineOption{pdb.WithEngineCacheSize(*cacheSize)}
	if len(peers) > 0 {
		engOpts = append(engOpts, pdb.WithEngineCluster(pdb.ClusterOptions{
			Peers:            peers,
			RequestTimeout:   *clusterTimeout,
			Retries:          *clusterRetries,
			BreakerThreshold: *breakerThreshold,
			ProbeInterval:    *probeInterval,
			HedgeAfter:       *hedgeAfter,
			LocalFallback:    *localFallback,
		}))
	}
	eng, err := db.Engine(engOpts...)
	if err != nil {
		return err
	}
	defer eng.Close()
	if len(peers) > 0 {
		// Probe the peer set at boot. Unreachable shards trip their
		// breakers immediately (instead of on the first query), but only a
		// fully-dead peer set with no local fallback is fatal — a partial
		// outage is exactly what failover exists for.
		probeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		healthy, total := eng.ProbeCluster(probeCtx)
		cancel()
		switch {
		case healthy == total:
			logger.Printf("coordinating %d shard(s): %s", total, strings.Join(peers, ", "))
		case healthy > 0 || *localFallback:
			logger.Printf("coordinating %d/%d healthy shard(s) (degraded; breakers open on the rest): %s",
				healthy, total, strings.Join(peers, ", "))
		default:
			return fmt.Errorf("cluster probe: 0/%d shards reachable and -local-fallback is off", total)
		}
	}
	handler, err := server.New(server.Config{
		Engine:         eng,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxTrials:      *maxTrials,
		MaxMemory:      *maxMemory,
		MaxWorkers:     *maxWorkers,
		SpillDir:       *spillDir,
		TenantHeader:   *tenantHeader,
		RequireTenant:  *requireTenant,
		StrictTenants:  *strictTenants,
		Quotas:         quotas,
		DefaultQuota:   defaultQuota,
		MaxInFlight:    *maxInFlight,
		AdmissionQueue: *admissionQueue,
		AdmissionWait:  *admissionWait,
		QuotaReloader:  reloader,
		Logger:         logger,
	})
	if err != nil {
		return err
	}

	if reloader != nil {
		// SIGHUP re-reads the quota file; a bad file logs and keeps the
		// previous quotas.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if err := handler.ReloadQuotas(); err != nil {
					logger.Printf("quota reload failed: %v", err)
				} else {
					logger.Printf("quotas reloaded from %s", *quotaFile)
				}
			}
		}()
	}

	srv := newHTTPServer(*addr, handler)
	errc := make(chan error, 1)
	go func() {
		logger.Printf("serving %d relation(s) %v on %s", len(tables), db.Relations(), *addr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down (drain %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Printf("bye")
	return nil
}

// runShard serves the binary shard protocol until SIGINT/SIGTERM. A
// shard holds no relations — tasks arrive self-contained over the wire —
// so it needs no -table/-datadir.
func runShard(addr string, workers int, logger *log.Logger) error {
	sh := cluster.NewShard(cluster.ShardConfig{Workers: workers, Logger: logger})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("shard serving on %s", ln.Addr())
		errc <- sh.Serve(ln)
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shard shutting down")
	if err := sh.Close(); err != nil {
		return err
	}
	st := sh.Stats()
	logger.Printf("shard bye (%d requests, %d trials sampled)", st.Requests, st.TrialsSampled)
	return nil
}

// splitPeers parses the -peers flag.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// Connection-level timeouts. A client that has not finished its request
// headers, or that holds a keep-alive connection without sending anything,
// has not reached admission control or a per-request deadline yet, so
// nothing else bounds it. A query's body is bounded by the handler's own
// read deadline (internal/server: the tenant's slot is held while it is
// read); evaluation and the response by the per-request deadline.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
