GO ?= go

.PHONY: all build test test-race vet lint fmt-check bench bench-smoke fleet-smoke kernel-smoke fuzz-smoke chaos-smoke partition-smoke obs-smoke paper apicheck apicheck-update service-smoke cluster-smoke

all: build lint fmt-check test apicheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet plus halotislint, the in-tree analyzer suite that
# enforces the kernel's determinism, zero-alloc, and deadline contracts
# (see internal/analysis and the Static analysis section of the README).
lint: vet
	$(GO) run ./cmd/halotislint ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# apicheck diffs the exported API surface (go doc -all of the three public
# packages) against the committed golden snapshots in apicompat/, so every
# public-surface change is deliberate. After an intentional change, run
# `make apicheck-update` and commit the regenerated snapshots.
APIPKGS = halotis halotis/api halotis/client halotis/cluster halotis/api/backendtest
apicheck: build
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for p in $(APIPKGS); do \
		n=$$(basename $$p); \
		$(GO) doc -all $$p > "$$tmp/$$n.txt"; \
		if ! diff -u "apicompat/$$n.txt" "$$tmp/$$n.txt"; then \
			echo "apicheck: exported surface of $$p drifted from apicompat/$$n.txt"; \
			echo "apicheck: if the change is intentional, run 'make apicheck-update' and commit"; \
			exit 1; \
		fi; \
	done; echo "apicheck: exported API surface matches apicompat/"

apicheck-update:
	@mkdir -p apicompat; \
	for p in $(APIPKGS); do \
		$(GO) doc -all $$p > "apicompat/$$(basename $$p).txt"; \
	done; echo "apicheck-update: wrote apicompat/ snapshots"

# bench runs the repository benchmark (BENCHMARK.json, perfbench/) on both
# of its workloads; add --trace 1 for the per-layer breakdown. It is the
# one perf harness and schema: halobench keeps the paper's tables and
# figures plus the runs perfbench does not do, and writes no perf record.
# The BENCH_PR*.json files are frozen history.
bench:
	bash perfbench/run.sh --workload kernel-large
	bash perfbench/run.sh --workload serve-fleet

# bench-smoke is the quick check of the root kernel benchmarks, the
# replica handler benchmarks and the halobench scale sweep: few iterations
# each. EngineReuseC17DDM is a run of a few microseconds, where the kernel's
# fixed per-run cost shows; EngineReuseDAG1kDDM and EngineReuseMult8x8DDM
# run serve-fleet's two larger circuits, a few hundred pending events per
# run; ServiceSimulateC17Miss and Hit are one c17
# simulate through the replica's handler in process, with and without a
# kernel run, where the machinery around the kernel shows.
bench-smoke:
	$(GO) test -run=NONE -bench='Table2Seq1DDM|EngineReuseSeq1DDM|EngineReuseC17DDM|EngineReuseDAG1kDDM|EngineReuseMult8x8DDM|Batch64Seq1WorkersMax' -benchmem -benchtime=100x .
	$(GO) test -run=NONE -bench='ServiceSimulateC17|Codec' -benchmem -benchtime=100x ./internal/service
	$(GO) run ./cmd/halobench -exp scale -scaleruns 1 -scalesizes 500

# fleet-smoke and kernel-smoke are 3 s runs of the repository benchmark,
# one workload each, with every report checked. fleet-smoke runs
# serve-fleet: two replicas behind a router. kernel-smoke runs
# kernel-large: a 100k-gate circuit parsed from text, whose simulated
# counts perfbench/expected.json pins. perfbench exits 0 even when ops
# fail, so the gate also requires "correct":true on the run's last line
# (the JSON summary).
fleet-smoke: SMOKE_WORKLOAD = serve-fleet
kernel-smoke: SMOKE_WORKLOAD = kernel-large
fleet-smoke kernel-smoke:
	@out=$$(bash perfbench/run.sh --workload $(SMOKE_WORKLOAD) --seconds 3) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "$@: $(SMOKE_WORKLOAD) run not correct"; exit 1; }

# chaos-smoke is the quick CI variant of the resilience soak: a short
# fault-injection run whose built-in assertions (zero divergent reports,
# bounded p99, every resilience mechanism observed firing in /metrics)
# make it a pass/fail gate, not just a benchmark.
chaos-smoke:
	$(GO) run ./cmd/halobench -exp chaos -chaosdur 4s -chaosclients 4

# partition-smoke is the quick CI variant of the partitioned-kernel sweep:
# one 100k-gate circuit at P=1 (one lane on the caller's goroutine) and
# P=4. Both run the same event loop; the experiment aborts unless the P=4
# run is bit-identical (stats and every net's transitions) to the P=1
# baseline, making this a large-circuit self-consistency gate, not just a
# benchmark.
partition-smoke:
	$(GO) run ./cmd/halobench -exp partition -partsizes 100000 -partcounts 1,4 -partfam random-dag -partruns 1

# obs-smoke is the CI gate on the observability layer: start a real
# daemon with structured logging, drive one traced simulate request with a
# fixed Halotis-Trace header, fetch the trace back by ID and assert the
# span tree (replica.request down to kernel.run) plus histogram buckets
# and runtime gauges in /metrics, then the fleet-health surface: /v1/status
# must carry SLO burn-rate windows and a queue drain estimate, and
# /v1/series must list the sampled metrics at its ring resolution. The
# trap kills the daemon on every exit path.
obs-smoke: build
	$(GO) build -o /tmp/halotisd-obs-smoke ./cmd/halotisd
	/tmp/halotisd-obs-smoke -addr 127.0.0.1:8981 -log-format json -log-level info & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:8981/healthz >/dev/null && break; \
		sleep 0.2; \
	done; \
	id=$$(curl -sf -X POST http://127.0.0.1:8981/v1/circuits \
		-d '{"name":"c17","format":"bench","netlist":"INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n"}' \
		| sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'); \
	test -n "$$id" && \
	curl -sf -X POST http://127.0.0.1:8981/v1/simulate \
		-H 'Halotis-Trace: 00000000deadbeef-0' \
		-d '{"circuit":"'$$id'","t_end":20,"profile":true,"stimulus":{"1":{"edges":[{"t":2,"rising":true,"slew":0.2}]}}}' \
		> /tmp/obs-smoke-report.json && \
	grep -q '"trace_id": *"00000000deadbeef"' /tmp/obs-smoke-report.json && \
	grep -q '"profile":' /tmp/obs-smoke-report.json && \
	curl -sf http://127.0.0.1:8981/v1/traces/00000000deadbeef > /tmp/obs-smoke-trace.json && \
	grep -q '"name": *"replica.request"' /tmp/obs-smoke-trace.json && \
	grep -q '"name": *"kernel.run"' /tmp/obs-smoke-trace.json && \
	grep -q '"name": *"queue.wait"' /tmp/obs-smoke-trace.json && \
	curl -sf http://127.0.0.1:8981/metrics > /tmp/obs-smoke-metrics.txt && \
	grep -q 'halotisd_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} ' /tmp/obs-smoke-metrics.txt && \
	grep -q '^halotisd_kernel_run_seconds_count 1$$' /tmp/obs-smoke-metrics.txt && \
	grep -q '^halotisd_traces_started_total 1$$' /tmp/obs-smoke-metrics.txt && \
	grep -q '^halotisd_go_goroutines ' /tmp/obs-smoke-metrics.txt && \
	curl -sf http://127.0.0.1:8981/v1/status > /tmp/obs-smoke-status.json && \
	grep -q '"burn_rate":' /tmp/obs-smoke-status.json && \
	grep -q '"name": *"fast"' /tmp/obs-smoke-status.json && \
	grep -q '"name": *"slow"' /tmp/obs-smoke-status.json && \
	grep -q '"target_p99_ms":' /tmp/obs-smoke-status.json && \
	grep -q '"queue_drain_estimate_ms":' /tmp/obs-smoke-status.json && \
	curl -sf http://127.0.0.1:8981/v1/series > /tmp/obs-smoke-series.json && \
	grep -q '"resolution_ms":' /tmp/obs-smoke-series.json && \
	grep -q 'requests_per_second' /tmp/obs-smoke-series.json && \
	echo "obs-smoke: trace + histograms + fleet-health surface verified"

# fuzz-smoke runs each parser/decoder fuzz target briefly (also in CI),
# plus FuzzRouterSimulate, which posts each input to a router and to its
# replica and requires the same report or the same coded error. The
# simulate codec (internal/wire) is held to encoding/json three ways:
# FuzzDecodeSimRequest and FuzzDecodeBatchRequest compare its strict
# decode with decodeJSON plus Validate, FuzzDecodeReport its lenient
# decode with json.Unmarshal, and FuzzEncode its encoders with
# json.Marshal. FuzzArenaQueue runs decoded op streams on the event queue
# and on its O(n) oracle and requires the same answer to every call.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/netfmt -run=NONE -fuzz=FuzzParseCircuit -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/netfmt -run=NONE -fuzz=FuzzParseStimulus -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/netfmt -run=NONE -fuzz=FuzzParseBench -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/service -run=NONE -fuzz=FuzzDecodeSimRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/service -run=NONE -fuzz=FuzzDecodeUploadRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/service -run=NONE -fuzz=FuzzDecodeBatchRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run=NONE -fuzz=FuzzDecodeReport -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run=NONE -fuzz=FuzzEncode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sim -run=NONE -fuzz=FuzzPartitionedIdentity -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/eventq -run=NONE -fuzz=FuzzArenaQueue -fuzztime=$(FUZZTIME)
	$(GO) test ./cluster -run=NONE -fuzz=FuzzRouterSimulate -fuzztime=$(FUZZTIME)

# service-smoke builds the daemon, starts it, and drives the client round
# trip the CI smoke job uses: upload c17.bench, simulate, check /healthz.
# The trap kills the daemon on every exit path, success or failure.
service-smoke: build
	$(GO) build -o /tmp/halotisd-smoke ./cmd/halotisd
	/tmp/halotisd-smoke -addr 127.0.0.1:8971 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:8971/healthz >/dev/null && break; \
		sleep 0.2; \
	done; \
	$(GO) run ./examples/service -addr http://127.0.0.1:8971 && \
	curl -sf http://127.0.0.1:8971/healthz >/dev/null && \
	curl -sf http://127.0.0.1:8971/metrics | grep -q '^halotisd_sim_runs_total 1$$' && \
	curl -sf http://127.0.0.1:8971/metrics | grep -q '^halotisd_result_cache_hits_total 4$$'

# cluster-smoke drives the CI cluster scenario end to end with real
# processes: three replica daemons plus a router (halotisd -cluster),
# upload + simulate through the router, kill one replica, simulate again,
# and assert the router's /metrics shows the replica down and traffic
# still flowing. The trap kills every daemon on any exit path.
cluster-smoke: build
	$(GO) build -o /tmp/halotisd-cluster-smoke ./cmd/halotisd
	/tmp/halotisd-cluster-smoke -addr 127.0.0.1:8961 -id r1 & p1=$$!; \
	/tmp/halotisd-cluster-smoke -addr 127.0.0.1:8962 -id r2 & p2=$$!; \
	/tmp/halotisd-cluster-smoke -addr 127.0.0.1:8963 -id r3 & p3=$$!; \
	/tmp/halotisd-cluster-smoke -addr 127.0.0.1:8960 \
		-cluster "http://127.0.0.1:8961,http://127.0.0.1:8962,http://127.0.0.1:8963" \
		-replication 2 -probe-interval 200ms & pr=$$!; \
	trap 'kill $$p1 $$p2 $$p3 $$pr 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:8960/healthz >/dev/null && break; \
		sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:8960/v1/topology | grep -q '"replication": *2' && \
	$(GO) run ./examples/service -addr http://127.0.0.1:8960 && \
	kill -9 $$p2 && sleep 1 && \
	$(GO) run ./examples/service -addr http://127.0.0.1:8960 && \
	curl -sf http://127.0.0.1:8960/metrics | grep -q 'halotisd_router_replica_healthy{replica="http://127.0.0.1:8962"} 0' && \
	curl -sf http://127.0.0.1:8960/metrics | grep -q 'halotisd_router_replicas_healthy 2' && \
	echo "cluster-smoke: failover verified"

# paper regenerates every table and figure of the paper's evaluation.
paper:
	$(GO) run ./cmd/halobench -exp all -fast
