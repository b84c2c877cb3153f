# Mirrors .github/workflows/ci.yml exactly, so the pipeline is
# reproducible locally: `make ci` runs what the PR gates run.

GO ?= go

.PHONY: ci build fmt-check vet test perfbench-check race bench-smoke bench bench-json \
	bench-gate island-smoke resume-smoke sigint-smoke robust-smoke shard-smoke \
	fleet-smoke obs-smoke crash-smoke

ci: build fmt-check vet test perfbench-check race bench-smoke resume-smoke sigint-smoke robust-smoke island-smoke shard-smoke fleet-smoke obs-smoke crash-smoke

build:
	$(GO) build ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# perfbench is a Go module of its own (replace repro => ../), so the
# root module's build, vet and test never compile it: check it against
# the APIs it imports here.
perfbench-check:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test ./...

# The concurrent packages: sharded fault simulation, the MOEA worker
# pool, the explorer that drives it, the shared decode/propagation
# state behind the pooled per-worker decoder, the fault-injection
# layer feeding the robustness objective, and the lock-free
# observability layer.
race:
	$(GO) test -race ./internal/faultsim/ ./internal/moea/ ./internal/core/ ./internal/pbsat/ ./internal/encode/ ./internal/model/ ./internal/objective/ ./internal/bistgen/ ./internal/can/ ./internal/gateway/ ./internal/shard/ ./internal/fleet/ ./internal/obs/ ./internal/durable/

# Fault-injection determinism through the CLI: a robust exploration
# (4th objective from the seeded CAN error model) must produce
# byte-identical Pareto fronts across runs and worker counts, and with
# the error model disabled the front must match the classic run byte
# for byte.
robust-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -workers 4 \
		-summary -robust -error-rate 1e-5 -csv $$tmp/robust-w4.csv >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -workers 2 \
		-summary -robust -error-rate 1e-5 -csv $$tmp/robust-w2.csv >/dev/null || exit 1; \
	cmp $$tmp/robust-w4.csv $$tmp/robust-w2.csv || { echo "robust front differs across worker counts" >&2; exit 1; }; \
	echo "robust-smoke: robust front byte-identical at workers 4 vs 2"; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -workers 4 \
		-summary -csv $$tmp/classic.csv >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -workers 4 \
		-summary -error-rate 0 -csv $$tmp/zero.csv >/dev/null || exit 1; \
	cmp $$tmp/classic.csv $$tmp/zero.csv || { echo "-error-rate 0 front differs from classic run" >&2; exit 1; }; \
	echo "robust-smoke: -error-rate 0 front identical to classic run"

# Checkpoint/resume determinism through the CLI: an NSGA-II run that
# checkpoints periodically, resumed from its last on-disk snapshot, must
# reproduce the uninterrupted run's Pareto front byte for byte across
# worker counts, and so must an island campaign whose last checkpoint
# falls mid-epoch (65 generations, checkpoint every 3, migration every
# 4: the file holds generation 63). Random search does not checkpoint:
# its front must be byte-identical across worker counts, and asking it
# to checkpoint must fail.
resume-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -workers 4 \
		-summary -csv $$tmp/full.csv >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -workers 4 \
		-summary -csv /dev/null -checkpoint $$tmp/cp.json -checkpoint-every 20 >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -workers 2 \
		-summary -csv $$tmp/resumed.csv -resume $$tmp/cp.json >/dev/null || exit 1; \
	cmp $$tmp/full.csv $$tmp/resumed.csv || { echo "resume front differs" >&2; exit 1; }; \
	echo "resume-smoke: nsga2 front byte-identical after resume"; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -optimizer random -workers 4 \
		-summary -csv $$tmp/random-w4.csv >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -optimizer random -workers 1 \
		-summary -csv $$tmp/random-w1.csv >/dev/null || exit 1; \
	cmp $$tmp/random-w4.csv $$tmp/random-w1.csv || { echo "random front differs across worker counts" >&2; exit 1; }; \
	echo "resume-smoke: random front byte-identical at workers 4 vs 1"; \
	if $(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -optimizer random \
		-summary -checkpoint $$tmp/x.json >/dev/null 2>&1; then \
		echo "-optimizer random accepted -checkpoint" >&2; exit 1; \
	fi; \
	echo "resume-smoke: -optimizer random -checkpoint rejected"; \
	isl="-small -evals 2100 -pop 32 -islands 3 -migrate-every 4"; \
	$(GO) run ./cmd/eedse $$isl -workers 4 -summary -csv $$tmp/full-isl.csv >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse $$isl -workers 4 -summary -csv /dev/null \
		-checkpoint $$tmp/cp-isl.json -checkpoint-every 3 >/dev/null || exit 1; \
	grep -q '"next_generation":63' $$tmp/cp-isl.json || { echo "island checkpoint not at mid-epoch generation 63" >&2; exit 1; }; \
	$(GO) run ./cmd/eedse $$isl -workers 2 -summary -csv $$tmp/resumed-isl.csv -resume $$tmp/cp-isl.json >/dev/null || exit 1; \
	cmp $$tmp/full-isl.csv $$tmp/resumed-isl.csv || { echo "mid-epoch island resume front differs" >&2; exit 1; }; \
	echo "resume-smoke: island campaign byte-identical after a mid-epoch resume"

# SIGINT survivability: interrupting a long campaign must exit 130 after
# writing a final checkpoint and the partial Pareto front.
sigint-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/eedse ./cmd/eedse || exit 1; \
	timeout --preserve-status -s INT 5 $$tmp/eedse -small -evals 100000000 -pop 32 \
		-summary -csv $$tmp/partial.csv -checkpoint $$tmp/cp.json >/dev/null 2>$$tmp/err; \
	rc=$$?; \
	[ $$rc -eq 130 ] || { echo "expected exit 130 on SIGINT, got $$rc" >&2; cat $$tmp/err >&2; exit 1; }; \
	[ -s $$tmp/cp.json ] || { echo "no checkpoint written on SIGINT" >&2; exit 1; }; \
	[ -s $$tmp/partial.csv ] || { echo "no partial front written on SIGINT" >&2; exit 1; }; \
	echo "sigint-smoke: exit 130, checkpoint + partial front written"

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Full benchmark sweep (not part of ci; slow).
bench:
	$(GO) test -run=NONE -bench=. ./...

# Machine-readable throughput report: the evaluation-pipeline benchmarks
# (decode+evaluate at 4 and 36 profiles per ECU, DSE worker sweep,
# end-to-end Fig. 5 run) plus the fault-tolerant transfer path as JSON.
# CI uploads $(BENCH_OUT) as an artifact; locally, raise BENCHTIME for
# stable numbers (e.g. `make bench-json BENCHTIME=2s`) and override the
# output file with BENCH_OUT=my-report.json.
BENCHTIME ?= 1x
BENCH_OUT ?= BENCH_9.json
bench-json:
	$(GO) test -run=NONE -bench 'DecodeEvaluate|DSEParallel|EvalThroughput|Fig5_DSE|TransferUnderErrors|IslandEpoch|FleetIngest|FleetRecovery' \
		-benchmem -benchtime=$(BENCHTIME) . | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# Benchmark-regression gate: run the gated benchmarks (the per-candidate
# evaluation campaigns run, with the greedy decoder on the full case
# study and with the SAT decoder at 4 and at 36 profiles per ECU, the DSE
# worker sweep, the island epoch, fleet ingest with and without the WAL,
# and WAL recovery) and compare against the committed baseline. Fails on
# >$(MAX_REGRESS) growth in ns/op or allocs/op, or loss in evals/s, for
# any benchmark present in both reports. allocs/op is machine-independent
# and gates exactly; the throughput gate assumes the runner class is no
# slower than the one that produced BENCH_BASELINE.json (refresh the
# baseline when the CI runner class changes:
# `make bench-json BENCH_OUT=BENCH_BASELINE.json BENCHTIME=2s`).
MAX_REGRESS ?= 15%
# The gate needs multi-iteration samples: a 1x benchtime measures the
# first iteration, which pays one-time warm-up (solver construction,
# decoder state) and reads ~2x the steady state. It takes five samples
# of each benchmark and gates their per-metric median (cmd/benchjson
# folds repeated results), so one sample slowed by host load does not
# fail it.
GATE_BENCHTIME ?= 1s
bench-gate:
	$(GO) test -run=NONE -bench 'EvalThroughput$$|DecodeEvaluate$$|DecodeEvaluateFull$$|DSEParallel|IslandEpoch|FleetIngest|FleetRecovery' \
		-benchmem -benchtime=$(GATE_BENCHTIME) -count 5 . | \
		$(GO) run ./cmd/benchjson -out bench-current.json \
			-compare BENCH_BASELINE.json -max-regress $(MAX_REGRESS)

# Island-model determinism through the CLI: for a fixed (seed, islands,
# migration) tuple the merged front must be byte-identical at any
# worker count, an explicit -islands 1 must reproduce the default
# single-population run exactly, an island campaign must resume
# byte-identically, and -migrants 0 must be rejected.
island-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -islands 4 -migrate-every 5 \
		-workers 4 -summary -csv $$tmp/islands-w4.csv >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -islands 4 -migrate-every 5 \
		-workers 1 -summary -csv $$tmp/islands-w1.csv >/dev/null || exit 1; \
	cmp $$tmp/islands-w4.csv $$tmp/islands-w1.csv || { echo "island front differs across worker counts" >&2; exit 1; }; \
	echo "island-smoke: islands=4 front byte-identical at workers 4 vs 1"; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -islands 1 \
		-workers 2 -summary -csv $$tmp/islands-1.csv >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 \
		-workers 2 -summary -csv $$tmp/classic.csv >/dev/null || exit 1; \
	cmp $$tmp/islands-1.csv $$tmp/classic.csv || { echo "-islands 1 front differs from classic run" >&2; exit 1; }; \
	echo "island-smoke: -islands 1 front identical to classic run"; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -islands 3 -migrate-every 4 \
		-workers 4 -summary -csv /dev/null -checkpoint $$tmp/icp.json >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -islands 3 -migrate-every 4 \
		-workers 2 -summary -csv $$tmp/resumed.csv -resume $$tmp/icp.json >/dev/null || exit 1; \
	$(GO) run ./cmd/eedse -small -evals 2000 -pop 32 -islands 3 -migrate-every 4 \
		-workers 4 -summary -csv $$tmp/ifull.csv >/dev/null || exit 1; \
	cmp $$tmp/ifull.csv $$tmp/resumed.csv || { echo "island resume front differs" >&2; exit 1; }; \
	echo "island-smoke: island campaign resumes byte-identically"; \
	if $(GO) run ./cmd/eedse -small -evals 1200 -pop 16 -islands 2 -migrate-every 2 -migrants 0 \
		-summary >/dev/null 2>&1; then \
		echo "-migrants 0 accepted" >&2; exit 1; \
	fi; \
	echo "island-smoke: -migrants 0 rejected"

# Process-sharding determinism through the CLI: the multi-process
# orchestrator (-procs) must reproduce the in-process island front byte
# for byte at any process count, a campaign chunked with -max-epochs
# must resume — at a different process count — to the identical front,
# and killing the orchestrator mid-epoch must leave a consistent
# recovery checkpoint that one more epoch can be stepped from.
shard-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/eedse ./cmd/eedse || exit 1; \
	$$tmp/eedse -small -evals 2000 -pop 32 -islands 4 -migrate-every 5 -workers 2 \
		-summary -csv $$tmp/inproc.csv >/dev/null || exit 1; \
	$$tmp/eedse -small -evals 2000 -pop 32 -islands 4 -migrate-every 5 -workers 2 \
		-procs 1 -summary -csv $$tmp/p1.csv >/dev/null || exit 1; \
	$$tmp/eedse -small -evals 2000 -pop 32 -islands 4 -migrate-every 5 -workers 1 \
		-procs 4 -summary -csv $$tmp/p4.csv >/dev/null || exit 1; \
	cmp $$tmp/inproc.csv $$tmp/p1.csv || { echo "-procs 1 front differs from in-process run" >&2; exit 1; }; \
	cmp $$tmp/inproc.csv $$tmp/p4.csv || { echo "-procs 4 front differs from in-process run" >&2; exit 1; }; \
	echo "shard-smoke: front byte-identical in-process vs -procs 1 vs -procs 4"; \
	$$tmp/eedse -small -evals 2000 -pop 32 -islands 4 -migrate-every 5 -workers 2 \
		-procs 2 -max-epochs 3 -checkpoint $$tmp/cp.json -summary >/dev/null 2>&1 || exit 1; \
	$$tmp/eedse -small -evals 2000 -pop 32 -islands 4 -migrate-every 5 -workers 2 \
		-procs 3 -resume $$tmp/cp.json -checkpoint $$tmp/cp.json \
		-summary -csv $$tmp/resumed.csv >/dev/null || exit 1; \
	cmp $$tmp/inproc.csv $$tmp/resumed.csv || { echo "resumed sharded front differs" >&2; exit 1; }; \
	echo "shard-smoke: -max-epochs stop + resume at different -procs byte-identical"; \
	timeout --preserve-status -s INT 2 $$tmp/eedse -small -evals 100000000 -pop 32 \
		-islands 4 -migrate-every 2 -procs 2 -workers 1 \
		-checkpoint $$tmp/kcp.json -summary >/dev/null 2>&1; \
	rc=$$?; [ $$rc -eq 130 ] || [ $$rc -eq 0 ] || { echo "SIGINT orchestrator exited $$rc" >&2; exit 1; }; \
	[ -s $$tmp/kcp.json ] || { echo "no recovery checkpoint after SIGINT" >&2; exit 1; }; \
	$$tmp/eedse -small -evals 100000000 -pop 32 -islands 4 -migrate-every 2 -procs 2 -workers 1 \
		-max-epochs 1 -resume $$tmp/kcp.json -checkpoint $$tmp/kcp2.json -summary >/dev/null 2>&1 || \
		{ echo "recovery checkpoint did not resume" >&2; exit 1; }; \
	echo "shard-smoke: mid-epoch kill left a consistent, resumable recovery checkpoint"

# Fleet-service smoke through the CLI: the seeded population summary
# must be byte-identical at any shard/worker count, the live HTTP
# endpoints must serve, and SIGTERM must drain gracefully with a final
# summary on stdout.
fleet-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/fleetd ./cmd/fleetd || exit 1; \
	$$tmp/fleetd -oneshot -vehicles 60 -ecus 3 -sessions-per-ecu 2 -fail-prob 0.3 \
		-seed 5 -shards 1 -workers 1 2>/dev/null > $$tmp/sum1.json || exit 1; \
	$$tmp/fleetd -oneshot -vehicles 60 -ecus 3 -sessions-per-ecu 2 -fail-prob 0.3 \
		-seed 5 -shards 7 -workers 8 2>/dev/null > $$tmp/sum2.json || exit 1; \
	cmp $$tmp/sum1.json $$tmp/sum2.json || { echo "fleet summary differs across shard/worker counts" >&2; exit 1; }; \
	echo "fleet-smoke: seeded summary byte-identical at shards=1/workers=1 vs shards=7/workers=8"; \
	$$tmp/fleetd -addr 127.0.0.1:0 -addr-file $$tmp/addr -vehicles 200 -ecus 4 -seed 3 \
		> $$tmp/final.json 2> $$tmp/log & pid=$$!; \
	for i in $$(seq 1 50); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "fleetd never bound" >&2; cat $$tmp/log >&2; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/fleetd -get "http://$$addr/fleet/summary" > $$tmp/live.json || { kill $$pid; exit 1; }; \
	grep -q '"vehicles"' $$tmp/live.json || { echo "summary endpoint malformed" >&2; kill $$pid; exit 1; }; \
	$$tmp/fleetd -get "http://$$addr/fleet/failing" >/dev/null || { kill $$pid; exit 1; }; \
	$$tmp/fleetd -get "http://$$addr/metrics" | grep -q '^fleet_sessions_completed_total' || { echo "/metrics missing fleet series" >&2; kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "fleetd exited nonzero on SIGTERM" >&2; cat $$tmp/log >&2; exit 1; }; \
	grep -q '"sessions_completed"' $$tmp/final.json || { echo "no final summary on drain" >&2; exit 1; }; \
	echo "fleet-smoke: live endpoints served, SIGTERM drained with final summary"

# Crash-safety smoke through the CLI: SIGKILL fleetd (via its own
# -kill-after-commits hook) at three seeded points mid-ingest, restart
# on the same -data-dir, and require the recovered summary to be
# byte-identical to an uninterrupted oneshot run — no acked session
# lost, no unacked session double-counted.
CRASH_FLAGS = -vehicles 40 -ecus 3 -sessions-per-ecu 2 -fail-prob 0.3 -seed 5 -workers 4
crash-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/fleetd ./cmd/fleetd || exit 1; \
	$$tmp/fleetd -oneshot $(CRASH_FLAGS) 2>/dev/null > $$tmp/ref.json || exit 1; \
	for n in 15 120 235; do \
		d=$$tmp/data-$$n; \
		$$tmp/fleetd -oneshot $(CRASH_FLAGS) -data-dir $$d -kill-after-commits $$n \
			>/dev/null 2>&1; \
		rc=$$?; [ $$rc -eq 137 ] || { echo "kill at commit $$n: expected SIGKILL (137), got $$rc" >&2; exit 1; }; \
		$$tmp/fleetd -oneshot $(CRASH_FLAGS) -data-dir $$d 2> $$tmp/log-$$n > $$tmp/rec-$$n.json || \
			{ echo "restart after kill at commit $$n failed" >&2; cat $$tmp/log-$$n >&2; exit 1; }; \
		grep -q "recovered" $$tmp/log-$$n || { echo "restart did not report recovery" >&2; exit 1; }; \
		cmp $$tmp/ref.json $$tmp/rec-$$n.json || \
			{ echo "summary differs after crash at commit $$n" >&2; exit 1; }; \
		echo "crash-smoke: kill -9 at commit $$n -> recovered summary byte-identical"; \
	done

# Observability smoke through the CLI: a traced campaign must produce
# the identical front to the untraced one, both flight-recorder files
# must validate through cmd/obsdump with the expected stages and metric
# series, and the live /metrics endpoint must serve the unified
# registry (fleet ingest counters and per-stage latency histograms
# from one scrape), for fleetd and for eedse -progress-addr alike.
obs-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/eedse ./cmd/eedse || exit 1; \
	$(GO) build -o $$tmp/fleetd ./cmd/fleetd || exit 1; \
	$(GO) build -o $$tmp/obsdump ./cmd/obsdump || exit 1; \
	$$tmp/eedse -small -evals 2000 -pop 32 -workers 4 -summary \
		-csv $$tmp/plain.csv >/dev/null || exit 1; \
	$$tmp/eedse -small -evals 2000 -pop 32 -workers 4 -summary \
		-csv $$tmp/traced.csv -trace-out $$tmp/dse.jsonl >/dev/null || exit 1; \
	cmp $$tmp/plain.csv $$tmp/traced.csv || { echo "-trace-out changed the Pareto front" >&2; exit 1; }; \
	$$tmp/obsdump $$tmp/dse.jsonl > $$tmp/dse.txt || { echo "obsdump rejected the campaign trace" >&2; exit 1; }; \
	for s in generation decode objective; do \
		grep -q "$$s" $$tmp/dse.txt || { echo "campaign trace missing $$s spans" >&2; cat $$tmp/dse.txt >&2; exit 1; }; \
	done; \
	$$tmp/obsdump -metrics $$tmp/dse.jsonl | grep -q '^dse_evaluations_total=' || \
		{ echo "campaign trace missing dse metric snapshots" >&2; exit 1; }; \
	echo "obs-smoke: traced campaign front identical, flight recorder validated"; \
	$$tmp/fleetd -oneshot -vehicles 40 -ecus 3 -seed 5 -trace-out $$tmp/fleet.jsonl >/dev/null 2>&1 || exit 1; \
	$$tmp/obsdump $$tmp/fleet.jsonl > $$tmp/fleet.txt || { echo "obsdump rejected the fleet trace" >&2; exit 1; }; \
	for s in chunk_accept session_assembly gateway_session; do \
		grep -q "$$s" $$tmp/fleet.txt || { echo "fleet trace missing $$s spans" >&2; cat $$tmp/fleet.txt >&2; exit 1; }; \
	done; \
	echo "obs-smoke: fleet ingest flight recorder validated"; \
	$$tmp/fleetd -addr 127.0.0.1:0 -addr-file $$tmp/addr -vehicles 50 -ecus 3 -seed 3 \
		>/dev/null 2> $$tmp/log & pid=$$!; \
	for i in $$(seq 1 50); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "fleetd never bound" >&2; cat $$tmp/log >&2; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/fleetd -get "http://$$addr/metrics" > $$tmp/metrics.txt || { kill $$pid; exit 1; }; \
	for s in fleet_chunks_total fleet_sessions_completed_total fleet_sessions_rejected_total \
			obs_stage_duration_seconds_bucket obs_stage_events_total; do \
		grep -q "^$$s" $$tmp/metrics.txt || { echo "/metrics missing $$s" >&2; kill $$pid; exit 1; }; \
	done; \
	kill -TERM $$pid; wait $$pid >/dev/null 2>&1 || true; \
	echo "obs-smoke: /metrics served the unified registry series"; \
	$$tmp/eedse -small -evals 100000000 -pop 32 -progress-addr 127.0.0.1:0 \
		>/dev/null 2> $$tmp/dse.log & pid=$$!; \
	for i in $$(seq 1 50); do grep -q 'progress endpoint on' $$tmp/dse.log && break; sleep 0.1; done; \
	url=$$(sed -n 's/^eedse: progress endpoint on \(http:[^ ]*\).*/\1/p' $$tmp/dse.log); \
	[ -n "$$url" ] || { echo "eedse never bound -progress-addr" >&2; cat $$tmp/dse.log >&2; kill $$pid; exit 1; }; \
	$$tmp/fleetd -get "$$url" | grep -q '^dse_evaluations_total' || { echo "eedse /metrics missing dse_evaluations_total" >&2; kill $$pid; exit 1; }; \
	kill -INT $$pid; wait $$pid; rc=$$?; \
	[ $$rc -eq 130 ] || { echo "eedse -progress-addr: expected exit 130 on SIGINT, got $$rc" >&2; cat $$tmp/dse.log >&2; exit 1; }; \
	echo "obs-smoke: eedse -progress-addr served dse_* series on /metrics, SIGINT exited 130"
