package fleet

import "repro/internal/obs"

// IngestStats is the service's one counter record: the monotonic
// ingest counters plus the live open-session and stored-record gauges.
// Each shard keeps two (its live counters and their committed
// portion); Stats and Summary sum them across shards, and a snapshot
// persists the committed ones. Unlike Summary, Stats never walks
// per-vehicle state, so it is safe to read on every metrics scrape.
type IngestStats struct {
	Chunks            uint64 `json:"chunks"`       // chunks offered to the shard
	ChunkErrors       uint64 `json:"chunk_errors"` // chunks rejected by the assembler (CRC, gap, duplicate)
	SessionsOpened    uint64 `json:"sessions_opened"`
	SessionsCompleted uint64 `json:"sessions_completed"`
	SessionsRejected  uint64 `json:"sessions_rejected"` // backpressure rejections (either cap)
	StaleSessions     uint64 `json:"stale_sessions"`
	CorruptRecords    uint64 `json:"corrupt_records"` // completed sessions whose record failed to parse

	// OpenSessions and RecordsStored describe the live state: reassembly
	// sessions in flight and records resident in the bounded shard rings.
	OpenSessions  int `json:"open_sessions"`
	RecordsStored int `json:"records_stored"`
}

func (c *IngestStats) add(o IngestStats) {
	c.Chunks += o.Chunks
	c.ChunkErrors += o.ChunkErrors
	c.SessionsOpened += o.SessionsOpened
	c.SessionsCompleted += o.SessionsCompleted
	c.SessionsRejected += o.SessionsRejected
	c.StaleSessions += o.StaleSessions
	c.CorruptRecords += o.CorruptRecords
	c.OpenSessions += o.OpenSessions
	c.RecordsStored += o.RecordsStored
}

// Stats sums the shard counters.
func (s *Server) Stats() IngestStats {
	var st IngestStats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.add(sh.stats)
		st.RecordsStored += sh.collector.Len()
		sh.mu.Unlock()
	}
	return st
}

// RegisterMetrics exposes the service's ingest counters on the
// registry as pull-style series: values are read from the shard
// counters at scrape time, so the hot path keeps its single
// (per-shard mutex) accounting and the registry adds zero ingest cost.
func RegisterMetrics(reg *obs.Registry, s *Server) {
	if reg == nil || s == nil {
		return
	}
	reg.CounterFunc("fleet_chunks_total", "chunks offered to the ingest path",
		func() float64 { return float64(s.Stats().Chunks) })
	reg.CounterFunc("fleet_chunk_errors_total", "chunks rejected by reassembly (CRC, gap, duplicate)",
		func() float64 { return float64(s.Stats().ChunkErrors) })
	reg.CounterFunc("fleet_sessions_opened_total", "reassembly sessions opened",
		func() float64 { return float64(s.Stats().SessionsOpened) })
	reg.CounterFunc("fleet_sessions_completed_total", "sessions fully assembled and stored",
		func() float64 { return float64(s.Stats().SessionsCompleted) })
	reg.CounterFunc("fleet_sessions_rejected_total", "sessions rejected by backpressure caps",
		func() float64 { return float64(s.Stats().SessionsRejected) })
	reg.CounterFunc("fleet_stale_sessions_total", "replayed session numbers rejected",
		func() float64 { return float64(s.Stats().StaleSessions) })
	reg.CounterFunc("fleet_corrupt_records_total", "completed sessions whose record failed to parse",
		func() float64 { return float64(s.Stats().CorruptRecords) })
	reg.GaugeFunc("fleet_open_sessions", "reassembly sessions currently in flight",
		func() float64 { return float64(s.Stats().OpenSessions) })
	reg.GaugeFunc("fleet_records_stored", "records resident in the bounded shard rings",
		func() float64 { return float64(s.Stats().RecordsStored) })
	reg.GaugeFunc("fleet_storage_degraded", "1 when the durable store is degraded read-only, else 0",
		func() float64 {
			if s.StorageDegraded() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("fleet_storage_rejects_total", "ingest calls refused because storage was degraded",
		func() float64 { return float64(s.StorageRejects()) })
	if s.store != nil {
		s.store.RegisterMetrics(reg)
	}
}
