package main

import (
	"fmt"
	"io"
)

// moves names, for each per-layer metric, the end-to-end metric it
// should move and on which workload — the prediction a change to that
// layer is checked against. The traced run prints it beside each value.
var moves = map[string]string{
	"casestudy.build_ms":            "setup_s on dse-*",
	"encode.build_ms":               "setup_s and throughput_per_s on dse-sat; nothing on dse-greedy",
	"encode.vars":                   "setup_s and throughput_per_s on dse-sat; nothing on dse-greedy",
	"encode.constraints":            "setup_s and throughput_per_s on dse-sat; nothing on dse-greedy",
	"encode.branching_us":           "throughput_per_s on dse-sat",
	"encode.extract_us":             "throughput_per_s on dse-sat",
	"pbsat.solve_ms":                "throughput_per_s on dse-sat",
	"pbsat.solver_build_ms":         "throughput_per_s on dse-sat",
	"pbsat.propagations_per_eval":   "throughput_per_s on dse-sat",
	"pbsat.conflicts_per_eval":      "throughput_per_s on dse-sat",
	"core.decode_busy_s":            "throughput_per_s on dse-*",
	"core.decode_p50_us":            "throughput_per_s and latency_* on dse-*",
	"core.decode_p90_us":            "throughput_per_s and latency_p90_ms on dse-*",
	"core.decode_share":             "throughput_per_s on dse-*",
	"objective.eval_p50_us":         "throughput_per_s on dse-greedy; nothing on dse-sat",
	"objective.busy_est_s":          "throughput_per_s on dse-greedy; nothing on dse-sat",
	"moea.gen_p50_ms":               "throughput_per_s on dse-*",
	"moea.gen_p90_ms":               "throughput_per_s on dse-*",
	"moea.archive_size":             "throughput_per_s on dse-greedy (archive folds are serial)",
	"moea.self_s":                   "throughput_per_s on dse-greedy; nothing on dse-sat",
	"moea.pool_idle_frac":           "throughput_per_s on dse-greedy",
	"moea.front_hv":                 "none: a speed-up must leave it unchanged (fixed-budget campaign)",
	"gateway.record_s":              "none: the load generator, kept off the clock",
	"gateway.chunks_per_session":    "context for throughput_per_s on ingest-ram",
	"gateway.chunk_reject_ratio":    "context for throughput_per_s on ingest-ram",
	"gateway.assemble_us":           "throughput_per_s on ingest-ram; nothing measurable with durable storage",
	"gateway.unmarshal_us":          "throughput_per_s on ingest-ram; nothing measurable with durable storage",
	"fleet.ingest_busy_s":           "throughput_per_s and latency_* on ingest-ram",
	"fleet.chunk_p50_us":            "latency_* on ingest-ram",
	"fleet.commit_p50_us":           "latency_p50_ms on ingest-ram",
	"fleet.commit_p90_us":           "latency_p90_ms on ingest-ram",
	"fleet.backpressure":            "failed count (must be 0)",
	"fleet.records_evicted":         "none: ring eviction in steady state, fixed per seed",
	"fleet.summary_p50_ms":          "scan_* of the read phase (the rest of a scan is JSON encoding)",
	"fleet.failing_p50_ms":          "scan_* of the read phase",
	"fleet.vehicle_p50_us":          "lookup_* of the read phase",
	"lookup_p50_ms":                 "read phase of ingest-ram (traced): an ingest gain must not cost readers",
	"lookup_p90_ms":                 "read phase of ingest-ram (traced): an ingest gain must not cost readers",
	"scan_p50_ms":                   "read phase of ingest-ram (traced): an ingest gain must not cost readers",
	"scan_p90_ms":                   "read phase of ingest-ram (traced): an ingest gain must not cost readers",
	"fleet.write_beside_read_per_s": "read phase of ingest-ram (traced): writer throughput beside the reader",
	"lookup_samples":                "none: sample count of lookup_*",
	"scan_samples":                  "none: sample count of scan_*",
	"latency_samples":               "none: sample count of latency_*",
	"durable.appends":               "throughput of durable ingest (side pass); nothing on ingest-ram's replay",
	"durable.syncs":                 "throughput and latency of durable ingest (side pass)",
	"durable.batch_mean":            "throughput of durable ingest (side pass)",
	"durable.wal_bytes_per_session": "throughput of durable ingest, only if bytes matter beside fsync latency",
	"durable.fsync_us":              "none: the device baseline, to tell device drift from a program change",
	"durable.snapshots":             "restart cost; not gated",
	"durable.close_ms":              "restart cost; not gated",
	"durable.recover_ms":            "restart cost; not gated",
	"fail_ratio":                    "failed count",
	"trace.overhead":                "none: traced ÷ untraced wall time − 1",
	"ledger.residual_s":             "none: wall time the layers do not account for",
}

// printPerLayer lists the traced run's per-layer metrics with the
// end-to-end metric each should move.
func printPerLayer(w io.Writer, r *run, defs []metricDef) {
	fmt.Fprintln(w, "\nper-layer metrics (value, unit, should move):")
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		val := "—"
		if ok {
			val = fmt.Sprintf("%.6g", v)
		}
		fmt.Fprintf(w, "  %-30s %14s %-6s → %s\n", d.Name, val, d.Unit, moves[d.Name])
	}
}
