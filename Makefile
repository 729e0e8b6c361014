# QLEC reproduction — convenience targets (stdlib-only Go module).

GO ?= go

.PHONY: all build test race race-service serve bench bench-json bench-check figs examples obs-demo audit-demo tournament-demo fleet-e2e ci clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The daemon and the parallel runner are the most concurrency-dense code
# in the repo (worker pool, SSE fan-out, queue close/drain, metric
# registry atomics); run them under -race twice so rare interleavings
# get a second chance to fire. This also covers the /metrics scrape +
# exposition-lint e2e tests in internal/service/obs_test.go, and the
# protocol registry (init-time registration + RWMutex lookups).
race-service:
	$(GO) test -race -count=2 ./internal/service/... ./internal/runner ./internal/obs ./internal/protocol/...

# Run the simulation daemon locally (Ctrl-C drains; second Ctrl-C
# force-quits). See README "Running as a service" for the API.
serve:
	$(GO) run ./cmd/qlecd -addr :8080 -data-dir qlecd-data

# Everything CI runs (see .github/workflows/ci.yml): build + vet, the
# full test suite, the race detector, and a short real sweep through the
# parallel runner under -race to shake out orchestration races that the
# unit tests' stub protocols cannot reach.
ci: build test race race-service
	$(GO) test -race -run 'TestSweepsParallelMatchSerial|TestMap' ./internal/experiment ./internal/runner
	$(GO) run -race ./cmd/qlecfig -fig ksweep -quick -workers 0 >/dev/null

bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmark trajectory: run the simulator- and selection-phase
# benchmarks with allocation stats and fold the output into a JSON file
# (name → ns/op, B/op, allocs/op, custom metrics) via cmd/qlecbench.
# Commit BENCH_PR2.json alongside performance PRs so regressions diff in
# review. BENCHTIME=1x (the default) is the quick CI mode; use e.g.
# `make bench-json BENCHTIME=2s` for stable local timings.
BENCHTIME ?= 1x
BENCH_OUT ?= BENCH_PR2.json
HOT_BENCH = ^(BenchmarkFig3aPacketDeliveryRate|BenchmarkRunnerOverhead|BenchmarkKSweepParallel|BenchmarkDecide|BenchmarkDecideFig4|BenchmarkSelectPaperScale|BenchmarkSelectImproved)$$

bench-json:
	$(GO) test -run '^$$' -bench '$(HOT_BENCH)' -benchmem -benchtime $(BENCHTIME) \
		. ./internal/qlearn ./internal/deec \
		| $(GO) run ./cmd/qlecbench -out $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# Regression gate: rebuild the hot-path trajectory into BENCH_PR7.json
# and fail when the Fig3a QLEC benchmarks regress past the committed
# PR2 baseline on ns/op or allocs/op (qlecbench -against). allocs/op is
# stable at any benchtime; ns/op sits roughly 2x under the PR2 numbers
# after the batched-kernel work, so the 1x CI mode has margin. The 1.10
# default absorbs the handful of fixed-count round-setup allocations the
# per-round geometry caches added (~3% on allocs/op, bought a ~2x ns/op
# win); a per-packet allocation regression scales far past 10% and
# still trips the gate.
BENCH_TOLERANCE ?= 1.10

bench-check:
	$(GO) test -run '^$$' -bench '$(HOT_BENCH)' -benchmem -benchtime $(BENCHTIME) \
		. ./internal/qlearn ./internal/deec \
		| $(GO) run ./cmd/qlecbench -out BENCH_PR7.json -against BENCH_PR2.json \
			-match 'Fig3aPacketDeliveryRate/QLEC' -tolerance $(BENCH_TOLERANCE)
	@echo wrote BENCH_PR7.json

# Regenerate every figure at full scale into ./figs (a few minutes).
figs:
	mkdir -p figs
	$(GO) run ./cmd/qlecfig -fig 3 -out figs | tee figs/fig3.txt
	$(GO) run ./cmd/qlecfig -fig 3a -k 11 | tee figs/fig3_k11.txt
	$(GO) run ./cmd/qlecfig -fig 4 -out figs | tee figs/fig4.txt
	$(GO) run ./cmd/qlecfig -fig ablation | tee figs/ablation.txt

# Observability demo: boot qlecd with Prometheus metrics and pprof
# enabled, submit a quick Figure-3 sweep plus a single QLEC run against
# it, then snapshot the exposition and the per-job Chrome traces under
# figs/. Open the trace JSON at https://ui.perfetto.dev (or
# chrome://tracing); point a Prometheus scrape at /metrics for the live
# version of the snapshot. See README "Observability".
OBS_ADDR ?= 127.0.0.1:8089
obs-demo:
	mkdir -p figs
	$(GO) build -o figs/.qlecd-demo ./cmd/qlecd
	@set -e; \
	figs/.qlecd-demo -addr $(OBS_ADDR) -pprof -data-dir '' -log-format json >figs/obs-demo-qlecd.log 2>&1 & \
	QLECD=$$!; trap "kill $$QLECD 2>/dev/null" EXIT INT TERM; \
	until curl -sf http://$(OBS_ADDR)/healthz >/dev/null 2>&1; do sleep 0.2; done; \
	curl -s http://$(OBS_ADDR)/version; echo; \
	ONE=$$(curl -s http://$(OBS_ADDR)/v1/jobs -d '{"kind":"one","protocols":["QLEC"],"lambda":4,"seed":1,"config":{"N":30,"Side":120,"K":3,"Rounds":20,"InitialEnergy":5,"Lambdas":[4],"Seeds":[1]}}' \
		| sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'); \
	FIG3=$$(curl -s http://$(OBS_ADDR)/v1/jobs -d '{"kind":"fig3","protocols":["QLEC","FCM","k-means"],"config":{"N":30,"Side":120,"K":3,"Rounds":5,"InitialEnergy":5,"Lambdas":[4,2],"Seeds":[1]}}' \
		| sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'); \
	echo "jobs: one=$$ONE fig3=$$FIG3"; \
	for J in $$ONE $$FIG3; do \
		while curl -s http://$(OBS_ADDR)/v1/jobs/$$J | grep -Eq '"state": *"(queued|running)"'; do sleep 0.3; done; \
	done; \
	curl -s http://$(OBS_ADDR)/v1/jobs/$$ONE/trace  >figs/obs-demo-trace-run.json; \
	curl -s http://$(OBS_ADDR)/v1/jobs/$$FIG3/trace >figs/obs-demo-trace-fig3.json; \
	curl -s http://$(OBS_ADDR)/metrics >figs/obs-demo-metrics.txt; \
	echo "wrote figs/obs-demo-trace-{run,fig3}.json and figs/obs-demo-metrics.txt"

# Flight-recorder demo: record two identically-seeded runs with the
# audit recorder on, prove their ledger/decision streams are
# bit-identical with `qlecaudit diff`, and leave the conservation
# report under figs/. The report exits non-zero if double-entry energy
# conservation is violated, so this target is also the CI guard for
# the recorder's invariants. See README "Auditing a run".
audit-demo:
	mkdir -p figs
	$(GO) run ./cmd/qlecsim -n 50 -rounds 20 -seed 7 -quiet -audit figs/audit-a.json
	$(GO) run ./cmd/qlecsim -n 50 -rounds 20 -seed 7 -quiet -audit figs/audit-b.json
	$(GO) run ./cmd/qlecaudit diff figs/audit-a.json figs/audit-b.json
	$(GO) run ./cmd/qlecaudit report figs/audit-a.json | tee figs/audit-report.txt
	@echo "wrote figs/audit-{a,b}.json and figs/audit-report.txt"

# Tournament smoke: a tiny scenario matrix over three registered
# protocols must produce a ranked report with one row per entrant.
# Guards the registry → tournament pipeline end to end (factory lookup,
# alias canonicalization, endurance leg, ranking). See README
# "Protocol tournament".
tournament-demo:
	@set -e; \
	OUT=$$($(GO) run ./cmd/qlecsim -tournament -n 24 -k 3 -rounds 3 -maxrounds 120 \
		-protocols "QLEC,kmeans,tdeec" -quiet); \
	echo "$$OUT"; \
	for P in QLEC k-means T-DEEC; do \
		echo "$$OUT" | grep -q "$$P" || { echo "tournament-demo: missing row for $$P" >&2; exit 1; }; \
	done; \
	echo "$$OUT" | grep -q "^1 " || { echo "tournament-demo: no rank-1 row" >&2; exit 1; }

# Fleet end-to-end guard: boot three race-built qlecd processes as a
# fleet, submit a batch through one of them, kill a peer after it has
# stolen work, and require the batch to finish with zero failed configs
# and an empty cell pool — the lease-expiry path must re-pool the dead
# peer's cells. Any data race crashes a daemon and fails the target.
# Before the kill, the observability surface is checked mid-batch: the
# federated /metrics/federate scrape must pass the exposition linter
# (qlecstat -check); two concurrent 1 s CPU profiles fetched from
# peers 1 and 3 through the stdlib /debug/pprof/profile endpoint (the
# daemons run with -pprof) must read as CPU profiles under
# `go tool pprof -top` (saved to figs/fleet-profile.pprof and
# figs/fleet-profile-3.pprof, uploaded as CI artifacts); and the
# batch's merged Chrome trace — saved to figs/fleet-trace.json and
# uploaded as a CI artifact — must span at least two daemon lanes
# (qlectrace -chrome), proving cross-peer trace propagation through a
# real steal. See README "Observing a fleet"/"Profiling a fleet" and
# DESIGN.md §14-§16.
FLEET_HOST ?= 127.0.0.1
FLEET_P1 ?= 8181
FLEET_P2 ?= 8182
FLEET_P3 ?= 8183
fleet-e2e:
	mkdir -p figs
	$(GO) build -race -o figs/.qlecd-fleet ./cmd/qlecd
	$(GO) build -o figs/.qlecstat-fleet ./cmd/qlecstat
	$(GO) build -o figs/.qlectrace-fleet ./cmd/qlectrace
	@set -e; \
	DATA=$$(mktemp -d); trap 'kill $$P1 $$P2 $$P3 2>/dev/null || true; rm -rf $$DATA' EXIT INT TERM; \
	U1=http://$(FLEET_HOST):$(FLEET_P1); U2=http://$(FLEET_HOST):$(FLEET_P2); U3=http://$(FLEET_HOST):$(FLEET_P3); \
	figs/.qlecd-fleet -addr $(FLEET_HOST):$(FLEET_P1) -data-dir $$DATA/n1 -workers 1 -cell-workers 1 -lease-ttl 2s -pprof -self $$U1 >$$DATA/n1.log 2>&1 & P1=$$!; \
	figs/.qlecd-fleet -addr $(FLEET_HOST):$(FLEET_P2) -data-dir $$DATA/n2 -lease-ttl 2s -pprof -self $$U2 -join $$U1 >$$DATA/n2.log 2>&1 & P2=$$!; \
	figs/.qlecd-fleet -addr $(FLEET_HOST):$(FLEET_P3) -data-dir $$DATA/n3 -lease-ttl 2s -pprof -self $$U3 -join $$U1 >$$DATA/n3.log 2>&1 & P3=$$!; \
	for U in $$U1 $$U2 $$U3; do until curl -sf $$U/readyz >/dev/null 2>&1; do sleep 0.2; done; done; \
	until [ "$$(curl -s $$U1/v1/fleet | grep -c '"ready": *true')" = 3 ]; do sleep 0.2; done; \
	echo "fleet-e2e: 3 peers ready"; \
	B=$$(curl -s $$U1/v1/batches -d '{"requests":[ \
		{"kind":"fig3","protocols":["QLEC"],"config":{"N":30,"Side":120,"K":3,"Rounds":60,"InitialEnergy":5,"Lambdas":[1,2,4,8],"Seeds":[1,2,3]}}, \
		{"kind":"fig3","protocols":["FCM"],"config":{"N":30,"Side":120,"K":3,"Rounds":60,"InitialEnergy":5,"Lambdas":[1,2,4,8],"Seeds":[1,2,3]}}, \
		{"kind":"one","protocols":["QLEC"],"lambda":4,"seed":9,"config":{"N":30,"Side":120,"K":3,"Rounds":40,"InitialEnergy":5,"Lambdas":[4],"Seeds":[9]}} \
	]}' | sed -n 's/.*"id": *"\(b[0-9]*\)".*/\1/p'); \
	test -n "$$B" || { echo "fleet-e2e: batch submission failed" >&2; cat $$DATA/n1.log; exit 1; }; \
	echo "fleet-e2e: batch $$B submitted (25 cells across 3 configs)"; \
	STOLE=; for i in $$(seq 1 200); do \
		if curl -s $$U3/metrics | grep -Eq '^qlecd_fleet_cells_stolen_in_total [1-9]'; then STOLE=1; break; fi; sleep 0.1; \
	done; \
	test -n "$$STOLE" || { echo "fleet-e2e: peer 3 never stole a cell" >&2; cat $$DATA/n3.log; exit 1; }; \
	echo "fleet-e2e: peer 3 stole work; checking observability mid-batch"; \
	figs/.qlecstat-fleet -addr $$U1 -check || { echo "fleet-e2e: federated scrape failed lint" >&2; exit 1; }; \
	curl -sf "$$U1/debug/pprof/profile?seconds=1" -o figs/fleet-profile.pprof & C1=$$!; \
	curl -sf "$$U3/debug/pprof/profile?seconds=1" -o figs/fleet-profile-3.pprof & C3=$$!; \
	wait $$C1 || { echo "fleet-e2e: CPU profile fetch from peer 1 failed" >&2; exit 1; }; \
	wait $$C3 || { echo "fleet-e2e: CPU profile fetch from peer 3 failed" >&2; exit 1; }; \
	for F in figs/fleet-profile.pprof figs/fleet-profile-3.pprof; do \
		$(GO) tool pprof -top $$F 2>/dev/null | grep -q '^Type: cpu' \
			|| { echo "fleet-e2e: $$F does not read as a CPU profile" >&2; exit 1; }; \
	done; \
	echo "fleet-e2e: mid-batch CPU profiles read from peers 1 and 3 (figs/fleet-profile.pprof, figs/fleet-profile-3.pprof)"; \
	TRACE_OK=; for i in $$(seq 1 150); do \
		curl -s $$U1/v1/batches/$$B/trace > figs/fleet-trace.json; \
		if figs/.qlectrace-fleet -chrome figs/fleet-trace.json 2>/dev/null | grep -Eq '^lanes: ([2-9]|[1-9][0-9]+)$$'; then TRACE_OK=1; break; fi; \
		sleep 0.2; \
	done; \
	test -n "$$TRACE_OK" || { echo "fleet-e2e: merged batch trace never spanned 2 daemons" >&2; figs/.qlectrace-fleet -chrome figs/fleet-trace.json || true; exit 1; }; \
	echo "fleet-e2e: merged trace spans >=2 daemon lanes (figs/fleet-trace.json); killing peer 3"; \
	kill -9 $$P3; \
	STATE=; for i in $$(seq 1 300); do \
		STATE=$$(curl -s $$U1/v1/batches); \
		echo "$$STATE" | grep -q '"state": *"done"' && break; \
		sleep 0.2; \
	done; \
	echo "$$STATE" | grep -q '"state": *"done"' || { echo "fleet-e2e: batch never finished" >&2; cat $$DATA/n1.log; exit 1; }; \
	echo "$$STATE" | grep -q '"failed": *0' || { echo "fleet-e2e: configs failed after peer kill" >&2; echo "$$STATE"; cat $$DATA/n1.log; exit 1; }; \
	POOL=$$(curl -s $$U1/v1/fleet); \
	echo "$$POOL" | grep -q '"cellsPending": *0' || { echo "fleet-e2e: cells left pending" >&2; echo "$$POOL"; exit 1; }; \
	echo "$$POOL" | grep -q '"cellsLeased": *0' || { echo "fleet-e2e: cells left leased" >&2; echo "$$POOL"; exit 1; }; \
	echo "fleet-e2e: batch $$B completed with no lost cells after the peer kill"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/underwater
	$(GO) run ./examples/mountain
	$(GO) run ./examples/largescale -quick
	$(GO) run ./examples/harsh

clean:
	rm -rf figs test_output.txt bench_output.txt
