# gemmec build/test entry points. Everything is plain `go` underneath;
# `make ci` is the full gate the repository must pass.

GO ?= go

.PHONY: all build vet test test-cores perfbench-check race race-hot stress-fault stress-load stress-cluster stress-obs stress-range bench bench-json bench-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 on one core and on every core: the parallel kernel search space
# and the scheduler's multi-worker paths only run with GOMAXPROCS > 1.
# -count=1 because the test cache does not key on GOMAXPROCS.
test-cores:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=$$(nproc) $(GO) test -count=1 ./...

# The benchmark is its own module; vet and test it so a change to the
# root API or internal/server cannot break its build unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# The packages with real lock/goroutine traffic (the daemon's concurrent
# PUT/GET/scrub paths and the streaming pipeline) get a -race pass on every
# CI run; `make race` remains the full-tree version.
race-hot:
	$(GO) test -race ./internal/server ./internal/pipeline ./internal/tuned

# Short seeded fault/cancellation stress: the faultfs-driven tests (injected
# errors, stalls, torn writes), the client-disconnect/timeout e2e tests and
# the Put/Delete lock storm, run twice under -race. Fault firing is
# deterministic per seed, so a failure here replays locally byte for byte.
stress-fault:
	$(GO) test -race -count=2 -run 'Fault|Stall|Torn|Cancel|Disconnect|Timeout|LockRace|MaxObjectSize|DeadContext' \
		./internal/faultfs ./internal/shardfile ./internal/server .

# Seeded heavy-traffic stress under -race: the shared scheduler's
# fairness/shutdown paths, admission-control 429s, slab pack/unpack through
# degraded reads and scrub, slow-GET vs PUT starvation, and the bounded
# goroutine guarantee. Deterministic inputs, so failures replay locally.
stress-load:
	$(GO) test -race -count=2 -run 'Sched|Queue|Admission|Slab|Starve|BoundedGoroutines|Scheduler|Overload' \
		./internal/sched ./internal/server .

# Seeded multi-peer cluster drill under -race: quorum writes abandoned
# cleanly across a partition fired mid-PUT (no committed metadata, no
# orphaned shards), slow/torn peers demoted mid-stream, degraded reads
# over real peer HTTP, and rebuild-to-empty-node byte-identity — plus the
# admission-control 429 guarantee in gateway mode. Fault injection is
# deterministic (FaultTransport rules, seeded payloads), so a failure
# here replays locally byte for byte.
stress-cluster:
	$(GO) test -race -count=2 -run 'TestCluster|TestQuorum|TestTorn|TestGateway|TestPeerAPIAuth|TestFault|TestPlacement|TestDelete|TestReadMeta|TestPutShard' \
		./internal/server ./internal/peer

# Observability drill under -race: the flight recorder's concurrent
# scrape-vs-finish paths, tail-retention and wire round-trip properties,
# cross-peer trace propagation through a real 3-peer HTTP cluster, and
# the member-labeled peer metrics fed by the client observer hooks.
stress-obs:
	$(GO) test -race -count=2 -run 'Trace|Tracez|Span|Waterfall|Retention|RingEviction|PeerMetrics|WireRoundTrip|NilSafety' \
		./internal/obs ./internal/server ./internal/peer

# Range/patch drill under -race: stripe-seeking DecodeRange at every
# boundary class (healthy, degraded, slab members, adversarial bounds),
# the HTTP Range surface (206/200/416 taxonomy), and the PATCH commit
# protocol — in-place XOR parity updates crosschecked byte-identical
# against full re-encodes, crash-injected journal replay, stale-journal
# discard, and the cluster's read-modify-write fallback.
stress-range:
	$(GO) test -race -count=2 -run 'Range|Patch|WindowWriter' \
		./internal/shardfile ./internal/server

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Machine-readable bench trajectory: clean vs degraded decode GB/s and
# time-to-first-byte across object sizes (BENCH_decode.json), the serving
# path's PUT/GET latency percentiles clean vs degraded through the full
# daemon stack (BENCH_server.json), and the heavy-traffic open-loop run —
# sustained RPS, small/large tails, shed count, goroutine bound
# (BENCH_load.json), and the networked 3-peer cluster's gateway latency +
# rebuild MB/s (BENCH_cluster.json). BENCH_ARGS="-quick" shrinks all four
# for smoke runs.
bench-json:
	$(GO) run ./cmd/ecbench -exp decode-json -json BENCH_decode.json $(BENCH_ARGS)
	$(GO) run ./cmd/ecbench -exp server-json -json BENCH_server.json $(BENCH_ARGS)
	$(GO) run ./cmd/ecbench -exp load-json -json BENCH_load.json $(BENCH_ARGS)
	$(GO) run ./cmd/ecbench -exp cluster-json -json BENCH_cluster.json $(BENCH_ARGS)
	$(GO) run ./cmd/ecbench -exp range-json -json BENCH_range.json $(BENCH_ARGS)

# Smoke pass over every bench-json experiment at the quick profile: the
# gate is that each experiment RUNS to completion (including the tuner
# retune-and-swap inside server-json), not what numbers it prints. Output
# lands in a throwaway directory so checked-in BENCH_*.json stay the
# paper-scale results from `make bench-json`.
bench-smoke:
	rm -rf .bench-smoke && mkdir -p .bench-smoke
	$(GO) run ./cmd/ecbench -exp decode-json -quick -json .bench-smoke/decode.json
	$(GO) run ./cmd/ecbench -exp server-json -quick -json .bench-smoke/server.json
	$(GO) run ./cmd/ecbench -exp load-json -quick -json .bench-smoke/load.json
	$(GO) run ./cmd/ecbench -exp cluster-json -quick -json .bench-smoke/cluster.json
	$(GO) run ./cmd/ecbench -exp range-json -quick -json .bench-smoke/range.json
	rm -rf .bench-smoke

# The allocation guards on the streaming hot paths (TestStreamSteadyStateAllocs,
# TestDecodeStreamSteadyStateAllocs and the full-server
# TestServerSteadyStateAllocs) run as part of `test-cores`, so `ci` gates on
# the encode, verified-decode and daemon PUT/GET paths staying
# allocation-free.
ci: build vet test-cores perfbench-check race-hot stress-fault stress-load stress-cluster stress-obs stress-range bench-smoke
