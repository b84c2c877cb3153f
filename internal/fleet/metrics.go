package fleet

import "repro/internal/obs"

// IngestStats is the service's cheap counter block: the monotonic
// per-shard ingest counters summed, plus the live open-session and
// stored-record gauges. Unlike Summary it never walks per-vehicle
// state, so it is safe to read on every metrics scrape.
type IngestStats struct {
	Chunks            uint64
	ChunkErrors       uint64
	SessionsOpened    uint64
	SessionsCompleted uint64
	SessionsRejected  uint64
	StaleSessions     uint64
	CorruptRecords    uint64

	OpenSessions  int
	RecordsStored int
}

// Stats sums the shard counters.
func (s *Server) Stats() IngestStats {
	var st IngestStats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Chunks += sh.stats.Chunks
		st.ChunkErrors += sh.stats.ChunkErrors
		st.SessionsOpened += sh.stats.SessionsOpened
		st.SessionsCompleted += sh.stats.SessionsCompleted
		st.SessionsRejected += sh.stats.SessionsRejected
		st.StaleSessions += sh.stats.StaleSessions
		st.CorruptRecords += sh.stats.CorruptRecords
		st.OpenSessions += sh.open
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
