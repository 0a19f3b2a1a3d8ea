GO ?= go

.PHONY: build test bench-module verify verify-extended golden chaos crash corrupt serve-chaos fleet-chaos disk-chaos leakcheck metrics-lint bench bench-e2e bench-check lint-docs tools

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness is its own module, so the root build never
# compiles it: build, vet and test it too, so that a change to the
# prover or slam API it reads breaks this gate instead of the benchmark
# (-o /dev/null: build the harness without leaving its binary behind).
bench-module:
	cd cmd/bench && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test ./...

# Tier-1 gate: everything must build and the full suite must pass.
verify: build test bench-module

# Extended gate: static analysis plus the race detector over the whole
# tree (exercises the shared prover and the concurrent tracer), then
# the fault-injection matrix and the cancellation leak check.
verify-extended: verify lint-docs metrics-lint chaos crash corrupt serve-chaos fleet-chaos disk-chaos leakcheck
	$(GO) test -race ./...

# Golden regeneration: rewrite the files that pin prover query counts
# after a change that alters which queries the abstraction asks — the
# corpus outputs (only calls= and session_checks= may move; every
# sha256=, verdict= and iterations= field must stay), the lock
# example's trace event stream and run report (only the prover/query
# and cube/search spans, the cube and reuse counts of the abstract/proc
# spans, and the report's prover-call, cache, cube and search-effort
# counters may move; every boolean program, verdict, Bebop and Newton
# line must stay) and the golden subject's prover-cache export. Review
# the diff before committing.
golden:
	UPDATE_GOLDEN=1 $(GO) test -count=1 -run 'TestEngineDifferential(Table2|Drivers)|TestSlamTraceJSONLGolden|TestSlamReportTextGolden' .
	$(GO) test -count=1 -run 'TestGoldenCacheExport' ./internal/checkpoint/ -update

# Chaos gate: the deterministic fault-injection matrix (seeded prover
# timeouts, spurious failures, forced unknowns, latency spikes, crashes)
# run against the end-to-end soundness oracle under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/faultinject/

# Crash gate: the kill/resume matrix — the real slam binary SIGKILLed at
# every checkpoint commit point (full and torn frames), resumed, and
# required to reproduce the uninterrupted run byte-for-byte, each cell
# twice, with the buggy subject never laundered into "verified".
crash:
	$(GO) test -count=1 -run 'TestCrash' ./internal/faultinject/

# Corruption gate: damaged journals (bit-flip sweep, truncation, bad
# magic, wrong compatibility hash) must be detected and recovered from —
# tail truncation or a diagnosed cold start — never a wrong answer.
corrupt:
	$(GO) test -count=1 -run 'TestCorrupt' ./internal/faultinject/

# Serve-chaos gate: the daemon-level kill matrix — predabsd workers
# SIGKILLed at every checkpoint commit, supervised retries required to
# deliver verdicts byte-identical to direct slam runs; retry exhaustion
# must retreat to "unknown" (never a verdict), and a hard daemon kill
# plus restart must resume journaled jobs from the ledger. Deterministic
# crash schedules, bounded wall clock.
serve-chaos:
	$(GO) test -count=1 -timeout 10m -run 'TestServeChaos' ./internal/faultinject/

# Fleet-chaos gate: the router-level kill matrix — backends SIGKILLed
# while holding dispatched jobs (lease expiry must fail the work over to
# a survivor) and the frontend SIGKILLed at every ledger commit point
# (admit, dispatch, lease, adopt, verdict) via its deterministic crash
# hook. Every cell requires verdicts byte-identical to direct slam runs,
# dedup collapse across restarts, and exactly one verdict per job —
# nothing lost, nothing double-credited.
fleet-chaos:
	$(GO) test -count=1 -timeout 10m -run 'TestFleetChaos' ./internal/faultinject/

# Disk-chaos gate: deterministic filesystem fault schedules (ENOSPC,
# short writes, fsync and read EIO, rename failure) injected under every
# durable store — journal, job ledger, per-job event logs, fleet ledger —
# plus their compaction/rotation paths. Every cell requires: no wrong
# verdict, no crash on an injected fault, sticky persistence-degraded
# shedding while the disk is bad, restart recovery of every acked record
# via torn-tail repair, compacted generations serving byte-identically to
# unbounded twins, and no job lost or double-credited.
disk-chaos:
	$(GO) test -race -count=1 -timeout 10m -run 'TestDiskChaos' ./internal/faultinject/ ./internal/checkpoint/ ./internal/server/ ./internal/fleet/

# Metrics gate: the Prometheus exposition's golden byte-for-byte family
# ordering, the disabled-registry zero-allocation pin (the nil-tracer
# contract extended to metrics), and the registry under the race
# detector with racing registration, updates, and scrapes.
metrics-lint:
	$(GO) test -race -count=1 -run 'TestPromExpositionGolden|TestDisabledMetricsZeroAlloc|TestRegistryConcurrentStress' ./internal/metrics/

# Leak gate: concurrent cancellation mid-cube-search must leave
# no goroutine behind and keep the degraded report deterministic, and
# the daemon must return to its goroutine/fd baseline after drains,
# deadline SIGKILLs, retry exhaustion, and shutdowns racing submitters.
leakcheck:
	$(GO) test -race -count=1 -run 'TestConcurrentCancellationNoGoroutineLeak|TestDegradedReportDeterministic' ./internal/slam/
	$(GO) test -race -count=1 -run 'TestServerLifecycleLeaks|TestShutdownStress' ./internal/server/

bench:
	$(GO) test -bench=. -benchmem .

# End-to-end benchmark: the four BENCHMARK.json workloads through
# cmd/bench (see cmd/bench/README.md), one invocation each, appended as
# JSON lines to $(BENCH_OUT). bench-check runs the same into a fresh
# file and compares it with BASE, lines an earlier bench-e2e wrote:
# every count metric must match exactly and no bounded metric may be
# worse than its BENCHMARK.json bound.
#
#   make bench-e2e BENCH_OUT=before.jsonl
#   make bench-check BASE=before.jsonl
BENCH_OUT ?= .bench_build/e2e.jsonl

bench-e2e:
	@mkdir -p .bench_build
	for w in drivers-cegar drivers-models table2-c2bp bebop-check; do \
		bash cmd/bench/run.sh --workload $$w --trace 0 -o $(BENCH_OUT) || exit 1; \
	done

bench-check:
	@test -n "$(BASE)" || { echo "usage: make bench-check BASE=<jsonl from bench-e2e>"; exit 2; }
	@mkdir -p .bench_build && rm -f .bench_build/check.jsonl
	$(MAKE) bench-e2e BENCH_OUT=.bench_build/check.jsonl
	bash cmd/bench/run.sh -check $(BASE) .bench_build/check.jsonl

# Doc gate: static analysis plus the exported-identifier doc-comment
# check over every package of the root module.
lint-docs:
	$(GO) vet ./...
	$(GO) run ./cmd/lintdocs $$($(GO) list -f '{{.Dir}}' ./...)

tools:
	$(GO) build -o bin/ ./cmd/...
