# Single source of truth for build/verify commands: CI invokes these same
# targets, so a green `make ci` locally means a green pipeline.

GO ?= go

.PHONY: build bench-build bench-smoke bench-pairs test race bench conformance fuzz vet fmt-check docs-check links-check keys-check seq-check examples service-smoke cluster-smoke chaos-smoke storage-smoke loc ci

build:
	$(GO) build ./...

# benchmark/ is its own module and frozen between benchmark PRs: vet and
# build it against this tree, so a refactor that breaks an API it imports
# fails here instead of in the benchmark pipeline.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) build -o /dev/null ./...

# Two seconds each of the end-to-end benchmark's four workloads, untraced;
# then one traced second each, whose per-layer ladder calls dnf, urel and
# karpluby directly. None of them draws a Karp–Luby trial any more:
# exact-join is exact conf over a repair-key join (parser, exact algebra,
# dnf, result assembly); conf-flat is conf over chained repair-key
# lineage that dnf.Certain proves certain, so P = 1 without sampling;
# sigma-strat is σ̂ over that lineage, every decision made on exact values;
# serve-mixed is a shared engine over HTTP whose cached, fresh and exact
# ops replay the sub-plan memo and sum exclusive lineage exactly. Each
# exits 1 when its op stream fails its (ε, δ) check against the exact
# oracle.
bench-smoke:
	bash benchmark/run.sh -workload exact-join -seconds 2 -notrace
	bash benchmark/run.sh -workload conf-flat -seconds 2 -notrace
	bash benchmark/run.sh -workload sigma-strat -seconds 2 -notrace
	bash benchmark/run.sh -workload serve-mixed -seconds 2 -notrace
	bash benchmark/run.sh -workload exact-join -seconds 1 -trace 1
	bash benchmark/run.sh -workload conf-flat -seconds 1 -trace 1
	bash benchmark/run.sh -workload sigma-strat -seconds 1 -trace 1
	bash benchmark/run.sh -workload serve-mixed -seconds 1 -trace 1

# Alternated BASE / working-tree pairs of the end-to-end benchmark (seeds
# 1..PAIRS): per workload and metric both medians, their ratio and the
# BENCHMARK.json bound; exits 1 on a broken bound. Not part of `ci` — ten
# pairs take about 45 minutes. make bench-pairs BASE=origin/main PAIRS=10
PAIRS ?= 10
bench-pairs:
	./scripts/bench-pairs.sh $(or $(BASE),origin/main) $(PAIRS)

test:
	$(GO) test ./...

# Build and run every examples/ program: the examples are executable
# documentation of the public pdb API, so a pass means the documented
# usage actually works end to end.
examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; \
		echo "== running $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

# Race-check everything: the scheduler, the mergeable estimator, the
# parallel engine, the shared cross-query engine cache, and the HTTP
# service (whose tests hammer one engine from many goroutines).
race:
	$(GO) test -race ./...

# Build pdbserve, boot it on the examples/ data, and drive it end to end
# with curl (JSON rows, cache reuse, limit errors, graceful shutdown).
service-smoke:
	./scripts/service-smoke.sh

# Boot two shard processes and a coordinator, assert the coordinator's
# query output is byte-identical to a single-node server's, reload quotas
# via SIGHUP, kill a shard and require bit-identical failover (and a fast
# typed error only once every shard is gone).
cluster-smoke:
	./scripts/cluster-smoke.sh

# Deterministic chaos: three shards behind seeded fault proxies (resets,
# latency), kill and restore one mid-sweep, assert byte-identical output,
# breaker trip + probe re-admission, and hedging — all via /metrics.
chaos-smoke:
	./scripts/chaos-smoke.sh

# Storage-layer smoke: pdbcli convert over the examples/ data, byte-stable
# CSV ↔ pdbstore round trip, bit-identical query output across formats
# (CLI and pdbserve NDJSON), and out-of-core -spill-dir completion of an
# over-budget join.
storage-smoke:
	./scripts/storage-smoke.sh

# The developer sweep: one pass over every per-package micro-benchmark, to
# see that they all still run. One iteration is not a measurement — for
# numbers, run one benchmark at a time-based -benchtime, or the end-to-end
# suite (bash benchmark/run.sh; docs/BENCHMARKS.md).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# Exhaustive statistical conformance sweep: many seeds through the
# workload corpus on both estimation paths, asserting empirical (ε, δ)
# coverage. The quick form already runs inside `make test`; this form is
# behind a build tag purely for time.
conformance:
	$(GO) test -tags conformance -v ./internal/conformance/

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/parser
	$(GO) test -fuzz=FuzzApproxPredicate -fuzztime=10s ./internal/predapprox
	$(GO) test -fuzz=FuzzIndex -fuzztime=10s ./internal/rel
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzClientHandshake -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzDecodeSampleRequest -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzDecodeSampleResult -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzStore -fuzztime=10s ./internal/store
	$(GO) test -fuzz=FuzzRowEncoding -fuzztime=10s ./internal/server

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Every package (internal, cmd, examples, root) must carry a package-level
# godoc comment; `go list`'s .Doc field is empty when one is missing.
docs-check:
	@missing="$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)"; \
	if [ -n "$$missing" ]; then \
		echo "packages missing a godoc package comment:"; \
		echo "$$missing"; exit 1; fi

# Every relative Markdown link must resolve to an existing file, so the
# docs set (README, docs/*, examples/README) cannot silently rot.
links-check:
	./scripts/check-links.sh

# One hashed identity: evaluation decides "are these the same?" by a 64-bit
# hash looked up in rel.Index and confirmed by value equality — never by a
# Key() string, never through a second hand-rolled hash chain. Likewise a
# random variable is its vars.Info.ID: nothing on the evaluation path or
# the cluster wire reads a rendered name (Table.Name, AltName) or builds
# one (displayKey). The check is a grep over those non-test files; a
# legitimate new use is added to KEYS_ALLOW (an extended regex over
# "file:line:text"), with a reason, rather than slipping in. Key() itself
# remains for display, the pdb result order, the possible-worlds reference
# and the corpus generator; names remain for Table.String,
# Assignment.Format and error messages.
KEYS_FILES = $(filter-out %_test.go,$(wildcard \
	internal/algebra/*.go internal/core/*.go internal/dnf/*.go \
	internal/karpluby/*.go internal/provenance/*.go \
	$(addprefix internal/urel/,urel.go exec.go spill.go membudget.go)))
NAME_FILES = $(KEYS_FILES) $(filter-out %_test.go,$(wildcard internal/cluster/*.go))
CHAIN_FILES = $(filter-out %_test.go internal/rel/index.go,$(wildcard *.go cmd/*/*.go pdb/*.go internal/*/*.go))
# Exempt render sites, one alternative each:
# - urel.go, func displayKey: the renderer's definition;
# - urel.go, displayKey(r.tuples…): rkNames' renderers, which only
#   Table.Name and AltName call, for display;
# - exec.go, a repair-key group error: the message names the group.
KEYS_ALLOW = ^internal/urel/urel\.go:[0-9]+:func displayKey\(|^internal/urel/urel\.go:[0-9]+:.*displayKey\(r\.tuples|^internal/urel/exec\.go:[0-9]+:.*fmt\.Errorf\("urel: repair-key group %s

keys-check:
	@bad="$$( { grep -nE '\.Key\(\)' $(KEYS_FILES); grep -nE '\.(Name|AltName)\(|displayKey\(' $(NAME_FILES); grep -nF 'map[uint64]int32' $(CHAIN_FILES); } | grep -vE '$(KEYS_ALLOW)' )"; \
	if [ -n "$$bad" ]; then \
		echo "a second identity mechanism (Key() string, rendered variable name or hand-rolled hash chain) on the evaluation path:"; \
		echo "$$bad"; exit 1; fi

# Exact evaluation is sequential but for one step: the exact operators and
# the plan walk run on the calling goroutine, and only the per-group exact
# confidences fan out over the pool — the one parallel path that measured
# ≥ 1.3× on two workers (pdb.BenchmarkExactWorkers; ROADMAP item 18). The
# check is a grep of the non-test files of internal/urel and
# internal/algebra for goroutines and pool fan-outs; a new parallel path
# is added to SEQ_ALLOW, with its measurement as the reason, rather than
# slipping in unmeasured. Exempt, one alternative each:
# - exec.go, CertExact: cert's exact confidence per lineage group;
# - estimate.go, exactEstimators.Estimate: conf's and σ̂'s exact
#   confidence per lineage group.
SEQ_FILES = $(filter-out %_test.go,$(wildcard internal/urel/*.go internal/algebra/*.go))
SEQ_ALLOW = ^internal/urel/exec\.go:[0-9]+:.*\.ForEach\(len\(fs\), |^internal/algebra/estimate\.go:[0-9]+:.*\.ForEach\(len\(fs\), 

seq-check:
	@bad="$$(grep -nE 'go func|ForEachCtx\(|sync\.WaitGroup|\.ForEach\(' $(SEQ_FILES) | grep -vE '$(SEQ_ALLOW)')"; \
	if [ -n "$$bad" ]; then \
		echo "a parallel path in the exact operators or the plan walker beside the per-group confidence fan-out:"; \
		echo "$$bad"; exit 1; fi

# Non-test Go lines per package — the figure a simplicity PR quotes. Last in
# `ci`, so the PR log carries it; `make loc BASE=origin/main` prints
# `before → after` against that ref instead.
loc:
	@./scripts/loc.sh $(BASE)

ci: vet fmt-check docs-check links-check keys-check seq-check build bench-build bench-smoke test race fuzz examples service-smoke cluster-smoke chaos-smoke storage-smoke loc
