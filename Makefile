# QLEC reproduction — convenience targets (stdlib-only Go module).

GO ?= go

.PHONY: all build test race race-service serve bench bench-pair bench-pair-service bench-pair-large figs examples obs-demo audit-demo tournament-demo fleet-e2e ci clean

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

# CI's `test` job (see .github/workflows/ci.yml) runs this target:
# build + vet, the full test suite, the race detector over every package
# (which covers the service, runner, obs and protocol packages once),
# and a short real sweep through the parallel runner under -race to
# shake out orchestration races that the unit tests' stub protocols
# cannot reach. The Fig. 4 run under -race covers the learner at the
# §5.3 shape (2896 nodes, 272 heads): the candidate-list prebuild on
# GOMAXPROCS goroutines and the list write-back beside the DEEC
# election. The `service-race` job runs `make race-service` (those
# packages under -race twice more) on its own, so it is not repeated
# here.
ci: build test race
	$(GO) test -race -run 'TestSweepsParallelMatchSerial|TestMap' ./internal/experiment ./internal/runner
	$(GO) run -race ./cmd/qlecfig -fig ksweep -quick -workers 0 >/dev/null
	$(GO) run -race ./cmd/qlecfig -fig 4 >/dev/null

bench:
	$(GO) test -bench=. -benchmem ./...

# Paired timing gate for the Fig. 3(a) QLEC cells (Table 2 setup, λ=8
# and λ=2). It builds the root test binary twice, from the git revision
# BASE (unpacked with git archive, so no worktree metadata) and from the
# working tree, then runs the two in 10 pairs at -benchtime 1s,
# alternating which side goes first. Each pair gives a HEAD/BASE ns/op
# ratio per cell; the target prints every pair, both medians and nproc,
# and fails when either median ratio exceeds 1.10. On a 2-core VM the
# per-pair ratios of two builds of one commit spread from about 0.82 to
# 1.19, wide enough that a median of 5 pairs would now and then pass
# 1.10 on noise alone; hence 10. BASE defaults to HEAD, so a local run
# compares uncommitted work with the last commit; CI passes the merge
# base of a pull request or the parent of a push.
BASE ?= HEAD

bench-pair:
	@set -e; \
	REV=$$(git rev-parse --verify "$(BASE)^{commit}"); \
	T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT INT TERM; \
	mkdir "$$T/base"; git archive "$$REV" | tar -x -C "$$T/base"; \
	(cd "$$T/base" && $(GO) test -c -o "$$T/base.test" .); \
	$(GO) test -c -o "$$T/head.test" .; \
	run() { \
		if [ "$$1" = base ]; then D="$$T/base"; else D=.; fi; \
		(cd "$$D" && "$$T/$$1.test" -test.run '^$$' -test.bench '^BenchmarkFig3aPacketDeliveryRate$$/^QLEC$$' \
			-test.benchtime 1s -test.timeout 10m) >"$$T/out" 2>&1 || { cat "$$T/out" >&2; exit 1; }; \
		awk -v pair="$$2" -v side="$$1" -v first="$$3" '/^BenchmarkFig3aPacketDeliveryRate\/QLEC\// { \
			for (i = 2; i < NF; i++) if ($$(i + 1) == "ns/op") ns = $$i; \
			sub(/-[0-9]+$$/, "", $$1); sub(/.*\//, "", $$1); print pair, first, side, $$1, ns }' "$$T/out" >>"$$T/runs"; \
	}; \
	for P in 1 2 3 4 5 6 7 8 9 10; do \
		if [ $$((P % 2)) = 1 ]; then run base $$P base; run head $$P base; \
		else run head $$P head; run base $$P head; fi; \
		echo "bench-pair: pair $$P/10 done" >&2; \
	done; \
	echo "bench-pair: BASE $$(git rev-parse --short "$$REV") vs working tree $$(git describe --always --dirty); nproc $$(nproc); 10 pairs at -benchtime 1s"; \
	awk 'function median(a, n,   i, j, t) { \
			for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t } \
			return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 } \
		{ ns[$$1, $$3, $$4] = $$5; first[$$1] = $$2 } \
		END { \
			printf "%-4s %-5s %-10s %12s %12s %9s\n", "pair", "first", "cell", "base ns/op", "head ns/op", "head/base"; \
			split("lambda=8 lambda=2", cells, " "); bad = 0; \
			for (c = 1; c <= 2; c++) for (p = 1; p <= 10; p++) { \
				b = ns[p, "base", cells[c]]; h = ns[p, "head", cells[c]]; \
				if (b == "" || h == "") { print "bench-pair: pair " p " has no " cells[c] " result on both sides"; exit 1 } \
				r[c, p] = h / b; \
				printf "%-4d %-5s %-10s %12d %12d %9.3f\n", p, first[p], cells[c], b, h, h / b } \
			for (c = 1; c <= 2; c++) { \
				for (p = 1; p <= 10; p++) a[p] = r[c, p]; \
				m = median(a, 10); verdict = m > 1.10 ? "FAIL" : "ok"; if (m > 1.10) bad = 1; \
				printf "median head/base %s: %.3f (limit 1.10) %s\n", cells[c], m, verdict } \
			exit bad }' "$$T/runs"

# End-to-end paired gates on bench/ workloads. Each unpacks BASE with
# git archive like bench-pair, then runs `bash bench/run.sh --workload W
# --seconds 5` on each side in 3 alternating pairs (each side builds its
# own benchmark binary) and prints every run's end-to-end metrics and
# both sides' medians. Both fail when a run reports failed operations or
# no result.
#
#   - bench-pair-service runs service-mixed (an in-process qlecd under 2
#     closed-loop clients) and fails when HEAD's median peak_rss_mb
#     exceeds 1.10x BASE's, the bound BENCHMARK.json sets for peak RSS.
#     Throughput and latency are printed, not gated: 3 pairs of 5 s
#     runs on a shared runner are too few to judge their 0.25 bounds.
#   - bench-pair-large runs large-scale (one Fig. 4 run, 2896 nodes at
#     k=272) and fails when HEAD's median ops_per_s falls below 0.8x
#     BASE's, the inverse of BENCHMARK.json's 0.25 bound.
bench-pair-service bench-pair-large:
	@set -e; \
	if [ $@ = bench-pair-service ]; then W=service-mixed; else W=large-scale; fi; \
	REV=$$(git rev-parse --verify "$(BASE)^{commit}"); \
	T=$$(mktemp -d); trap 'rm -rf "$$T"' EXIT INT TERM; \
	mkdir "$$T/base"; git archive "$$REV" | tar -x -C "$$T/base"; \
	run() { \
		if [ "$$1" = base ]; then D="$$T/base"; else D=.; fi; \
		(cd "$$D" && bash bench/run.sh --workload $$W --seconds 5) >"$$T/out" 2>&1 || true; \
		J=$$(tail -n 1 "$$T/out"); \
		val() { echo "$$J" | sed -n "s/.*\"$$1\":{\"value\":\([^,}]*\).*/\1/p"; }; \
		F=$$(echo "$$J" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p'); \
		if [ -z "$$F" ] || [ -z "$$(val peak_rss_mb)" ] || [ -z "$$(val ops_per_s)" ]; then cat "$$T/out" >&2; echo "$@: $$1 run of pair $$2 gave no result" >&2; exit 1; fi; \
		echo "$$2 $$3 $$1 $$F $$(val setup_s) $$(val ops_per_s) $$(val latency_ms_p75) $$(val peak_rss_mb)" >>"$$T/runs"; \
	}; \
	for P in 1 2 3; do \
		if [ $$((P % 2)) = 1 ]; then run base $$P base; run head $$P base; \
		else run head $$P head; run base $$P head; fi; \
		echo "$@: pair $$P/3 done" >&2; \
	done; \
	echo "$@: BASE $$(git rev-parse --short "$$REV") vs working tree $$(git describe --always --dirty); nproc $$(nproc); $$W, 3 pairs of 5 s runs"; \
	awk -v gate=$@ 'function median(a, n,   i, j, t) { \
			for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t } \
			return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 } \
		BEGIN { printf "%-4s %-5s %-4s %6s %9s %9s %9s %11s\n", "pair", "first", "side", "failed", "setup_s", "ops_per_s", "p75_ms", "peak_rss_mb" } \
		{ printf "%-4d %-5s %-4s %6d %9.4f %9.2f %9.2f %11.2f\n", $$1, $$2, $$3, $$4, $$5, $$6, $$7, $$8; \
			n[$$3]++; failed += $$4; for (m = 5; m <= 8; m++) v[$$3, m, n[$$3]] = $$(m) } \
		END { \
			split("setup_s ops_per_s latency_ms_p75 peak_rss_mb", names, " "); \
			for (m = 5; m <= 8; m++) { \
				for (i = 1; i <= n["base"]; i++) a[i] = v["base", m, i]; mb[m] = median(a, n["base"]); \
				for (i = 1; i <= n["head"]; i++) a[i] = v["head", m, i]; mh[m] = median(a, n["head"]); \
				printf "median %-15s base %10.4f head %10.4f head/base %.3f\n", names[m - 4], mb[m], mh[m], mh[m] / mb[m] } \
			bad = 0; \
			if (failed > 0) { print gate ": FAIL, " failed " failed operations"; bad = 1 } \
			if (gate == "bench-pair-service" && mh[8] > 1.10 * mb[8]) { printf "%s: FAIL, median peak_rss_mb head/base %.3f exceeds 1.10\n", gate, mh[8] / mb[8]; bad = 1 } \
			if (gate == "bench-pair-large" && mh[6] < 0.8 * mb[6]) { printf "%s: FAIL, median ops_per_s head/base %.3f below 0.8\n", gate, mh[6] / mb[6]; bad = 1 } \
			if (!bad) print gate ": ok"; \
			exit bad }' "$$T/runs"

# Regenerate every figure at full scale into ./figs (a few minutes).
figs:
	mkdir -p figs
	$(GO) run ./cmd/qlecfig -fig 3 -out figs | tee figs/fig3.txt
	$(GO) run ./cmd/qlecfig -fig 3a -k 11 | tee figs/fig3_k11.txt
	$(GO) run ./cmd/qlecfig -fig 4 -out figs | tee figs/fig4.txt
	$(GO) run ./cmd/qlecfig -fig ablation | tee figs/ablation.txt
	$(GO) run ./cmd/qlecfig -fig theorem1 | tee figs/theorem1.txt

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
# Before the kill, the observability surface is checked mid-batch:
# every peer must serve /metrics (the exposition linter runs over each
# peer's /metrics in-process, in TestFleetTraceAndMetrics); two
# concurrent 1 s CPU profiles fetched from
# peers 1 and 3 through the stdlib /debug/pprof/profile endpoint (the
# daemons run with -pprof) must read as CPU profiles under
# `go tool pprof -top` (saved to figs/fleet-profile.pprof and
# figs/fleet-profile-3.pprof, uploaded as CI artifacts), and peer 1's
# must list `cell` under the `kind` label in `go tool pprof -tags`,
# proving that the profile labels reach pooled cells; and the
# batch's merged Chrome trace — saved to figs/fleet-trace.json and
# uploaded as a CI artifact — must span at least two daemon lanes
# (qlecaudit trace -chrome), proving cross-peer trace propagation through a
# real steal. See README "Observing a fleet"/"Profiling a fleet" and
# DESIGN.md §14-§16.
FLEET_HOST ?= 127.0.0.1
FLEET_P1 ?= 8181
FLEET_P2 ?= 8182
FLEET_P3 ?= 8183
fleet-e2e:
	mkdir -p figs
	$(GO) build -race -o figs/.qlecd-fleet ./cmd/qlecd
	$(GO) build -o figs/.qlecaudit-fleet ./cmd/qlecaudit
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
	for U in $$U1 $$U2 $$U3; do \
		curl -sf $$U/metrics >/dev/null || { echo "fleet-e2e: GET $$U/metrics failed" >&2; exit 1; }; \
	done; \
	echo "fleet-e2e: /metrics answered on all 3 peers"; \
	curl -sf "$$U1/debug/pprof/profile?seconds=1" -o figs/fleet-profile.pprof & C1=$$!; \
	curl -sf "$$U3/debug/pprof/profile?seconds=1" -o figs/fleet-profile-3.pprof & C3=$$!; \
	wait $$C1 || { echo "fleet-e2e: CPU profile fetch from peer 1 failed" >&2; exit 1; }; \
	wait $$C3 || { echo "fleet-e2e: CPU profile fetch from peer 3 failed" >&2; exit 1; }; \
	for F in figs/fleet-profile.pprof figs/fleet-profile-3.pprof; do \
		$(GO) tool pprof -top $$F 2>/dev/null | grep -q '^Type: cpu' \
			|| { echo "fleet-e2e: $$F does not read as a CPU profile" >&2; exit 1; }; \
	done; \
	$(GO) tool pprof -tags figs/fleet-profile.pprof 2>/dev/null \
		| awk '/^ *[A-Za-z_]+: Total/ { k = ($$1 == "kind:") } k && $$NF == "cell" { f = 1 } END { exit !f }' \
		|| { echo "fleet-e2e: peer 1's CPU profile has no kind=cell samples" >&2; $(GO) tool pprof -tags figs/fleet-profile.pprof >&2 || true; exit 1; }; \
	echo "fleet-e2e: mid-batch CPU profiles read from peers 1 and 3 (figs/fleet-profile.pprof, figs/fleet-profile-3.pprof); peer 1's carries kind=cell labels"; \
	TRACE_OK=; for i in $$(seq 1 150); do \
		curl -s $$U1/v1/batches/$$B/trace > figs/fleet-trace.json; \
		if figs/.qlecaudit-fleet trace -chrome figs/fleet-trace.json 2>/dev/null | grep -Eq '^lanes: ([2-9]|[1-9][0-9]+)$$'; then TRACE_OK=1; break; fi; \
		sleep 0.2; \
	done; \
	test -n "$$TRACE_OK" || { echo "fleet-e2e: merged batch trace never spanned 2 daemons" >&2; figs/.qlecaudit-fleet trace -chrome figs/fleet-trace.json || true; exit 1; }; \
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
