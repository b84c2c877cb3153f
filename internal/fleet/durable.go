package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/gateway"
	"repro/internal/obs"
)

// Durability model. The unit of commitment is one completed session:
// when the chunk completing a reassembly arrives, the session's
// outcome (the record, or a corrupt verdict) plus its wire deltas are
// framed into one WAL entry and fsynced before any server state
// mutates or the final chunk is acknowledged. Everything recovery can
// see was therefore acked, and everything acked is seen — the sender
// resume protocol (skip sessions at or below LastCommitted, redo the
// rest with per-session-seeded wire behavior) makes a crashed-and-
// recovered run converge on byte-identical SummaryJSON with an
// uninterrupted one.
//
// Commit entry layout (little-endian):
//
//	u8 outcome | u32 session | u32 chunks | u32 chunkErrors |
//	u16 len(vehicle) | vehicle | u16 len(ecu) | ecu |
//	u32 len(blob) | blob
//
// where blob is the reassembled record (gateway wire format) for
// entryStored and empty for entryCorrupt.
const (
	entryStored  byte = 1 // session completed, record parsed and stored
	entryCorrupt byte = 2 // session completed, record corrupt or mismatched
)

// commitEntry is one decoded WAL entry.
type commitEntry struct {
	outcome      byte
	session      uint32
	chunks       uint64
	chunkErrors  uint64
	vehicle, ecu string
	blob         []byte
}

func appendCommitEntry(buf []byte, outcome byte, vehicle, ecu string, session uint32, chunks, chunkErrors uint64, blob []byte) []byte {
	buf = append(buf, outcome)
	buf = binary.LittleEndian.AppendUint32(buf, session)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(chunks))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(chunkErrors))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(vehicle)))
	buf = append(buf, vehicle...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ecu)))
	buf = append(buf, ecu...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
	return append(buf, blob...)
}

func decodeCommitEntry(b []byte) (commitEntry, error) {
	var e commitEntry
	bad := func() (commitEntry, error) {
		return e, fmt.Errorf("fleet: truncated commit entry (%d bytes)", len(b))
	}
	if len(b) < 13 {
		return bad()
	}
	e.outcome = b[0]
	e.session = binary.LittleEndian.Uint32(b[1:])
	e.chunks = uint64(binary.LittleEndian.Uint32(b[5:]))
	e.chunkErrors = uint64(binary.LittleEndian.Uint32(b[9:]))
	b = b[13:]
	if len(b) < 2 {
		return bad()
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return bad()
	}
	e.vehicle, b = string(b[:n]), b[n:]
	if len(b) < 2 {
		return bad()
	}
	n = int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return bad()
	}
	e.ecu, b = string(b[:n]), b[n:]
	if len(b) < 4 {
		return bad()
	}
	n = int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != n {
		return bad()
	}
	if e.outcome != entryStored && e.outcome != entryCorrupt {
		return e, fmt.Errorf("fleet: unknown commit entry outcome %d", e.outcome)
	}
	e.blob = b
	return e, nil
}

// snapState is the snapshot codec: the committed counters, per-stream
// state, and resident records (gateway wire blobs, in ring order shard
// by shard). encoding/json sorts map keys, so equal state serializes
// to equal bytes.
type snapState struct {
	// Counters: chunks, chunkErrors, opened, completed, corrupt — the
	// committed portion only. Wire-noise counters that were never part
	// of a commit (stale replays, backpressure rejections) are volatile
	// by design: a crash loses them along with the unacked traffic that
	// caused them, and the senders' resumed traffic recreates neither.
	Counters [5]uint64                         `json:"counters"`
	Vehicles map[string]map[string]streamState `json:"vehicles"`
	Records  [][]byte                          `json:"records"`
}

// DurableConfig wires a Server to a durable.Store.
type DurableConfig struct {
	// Dir is the data directory (WAL segments + snapshots).
	Dir string
	// FS overrides the filesystem (fault injection in tests).
	FS durable.FS
	// SnapshotEvery / SnapshotInterval tune the snapshot cadence
	// (durable.Options semantics).
	SnapshotEvery    int
	SnapshotInterval time.Duration
	// OnCommit, when set, observes every durable commit LSN. Called
	// with a shard lock held — keep it trivial (the chaos harness's
	// kill switch).
	OnCommit func(lsn uint64)
	// Obs times wal_append / snapshot / recover stages.
	Obs *obs.Tracer
}

// OpenDurable attaches crash-safe persistence: recover the pre-crash
// state from dir, then WAL every subsequent session commit. Call
// before serving, like SetArch/SetObs; the server must still be empty.
func (s *Server) OpenDurable(cfg DurableConfig) (durable.Recovery, error) {
	if s.store != nil {
		return durable.Recovery{}, errors.New("fleet: durable store already open")
	}
	st, rec, err := durable.Open(cfg.Dir, durable.Options{
		FS:               cfg.FS,
		SnapshotEvery:    cfg.SnapshotEvery,
		SnapshotInterval: cfg.SnapshotInterval,
		State:            s.captureState,
		Restore:          s.restoreState,
		Apply:            s.applyEntry,
		OnCommit:         cfg.OnCommit,
		Obs:              cfg.Obs,
	})
	if err != nil {
		return rec, err
	}
	s.store = st
	st.Start()
	return rec, nil
}

// CloseDurable snapshots and closes the store. Nil-safe.
func (s *Server) CloseDurable() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// KillDurable abandons the store without flushing — the in-process
// crash simulation used by the chaos tests.
func (s *Server) KillDurable() {
	if s.store != nil {
		s.store.Kill()
	}
}

// StorageDegraded reports whether the durable store has turned the
// service read-only.
func (s *Server) StorageDegraded() bool {
	return s.store != nil && s.store.Degraded()
}

// StorageRejects counts ingest calls refused because storage was
// degraded.
func (s *Server) StorageRejects() uint64 { return s.storageRejects.Load() }

// DurableStats exposes the store's activity counters (zero when the
// server runs without persistence).
func (s *Server) DurableStats() durable.Stats {
	if s.store == nil {
		return durable.Stats{}
	}
	return s.store.StatsSnapshot()
}

// SnapshotNow forces a snapshot (test and shutdown hook). Nil-safe.
func (s *Server) SnapshotNow() error {
	if s.store == nil {
		return nil
	}
	return s.store.Snapshot()
}

// LastCommitted returns the highest committed session number of one
// (vehicle, ECU) stream — the sender resume protocol: sessions at or
// below it were durably counted and must not be re-sent.
func (s *Server) LastCommitted(vehicle, ecu string) uint32 {
	sh := s.shards[s.ShardOf(vehicle)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if vs := sh.vehicles[vehicle]; vs != nil {
		if es := vs.ecus[ecu]; es != nil {
			return es.LastCommitted
		}
	}
	return 0
}

// captureState serializes the committed state under a full freeze:
// every shard lock is held, so no commit (and therefore no Append) is
// in flight and store.LastLSN() is exactly the captured cover.
func (s *Server) captureState() ([]byte, uint64, error) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}()

	st := snapState{Vehicles: make(map[string]map[string]streamState)}
	var c IngestStats
	for _, sh := range s.shards {
		c.add(sh.committed)
		for id, vs := range sh.vehicles {
			ecus := make(map[string]streamState, len(vs.ecus))
			for name, es := range vs.ecus {
				ecus[name] = es.streamState
			}
			st.Vehicles[id] = ecus
		}
		for _, rec := range sh.collector.Records() {
			blob, err := gateway.Marshal(rec)
			if err != nil {
				return nil, 0, fmt.Errorf("fleet: snapshot record: %w", err)
			}
			st.Records = append(st.Records, blob)
		}
	}
	st.Counters = [5]uint64{c.Chunks, c.ChunkErrors, c.SessionsOpened, c.SessionsCompleted, c.CorruptRecords}
	data, err := json.Marshal(st)
	if err != nil {
		return nil, 0, err
	}
	return data, s.store.LastLSN(), nil
}

// restoreState resets the server to a snapshot. Runs inside
// durable.Open, before any concurrent ingest exists.
func (s *Server) restoreState(data []byte) error {
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("fleet: decode snapshot: %w", err)
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.vehicles = make(map[string]*vehicleState)
		sh.collector.Clear()
		sh.stats, sh.committed = IngestStats{}, IngestStats{}
		sh.mu.Unlock()
	}
	// Seed the live counters from the committed ones: the recovered
	// server starts exactly where the committed history ends. Shard 0
	// carries the recovered sums — Summary, Stats and the next snapshot
	// only ever read the sums across shards.
	c := st.Counters
	sh0 := s.shards[0]
	sh0.mu.Lock()
	sh0.committed = IngestStats{Chunks: c[0], ChunkErrors: c[1], SessionsOpened: c[2], SessionsCompleted: c[3], CorruptRecords: c[4]}
	sh0.stats = sh0.committed
	sh0.mu.Unlock()

	for vehicle, ecus := range st.Vehicles {
		sh := s.shards[s.ShardOf(vehicle)]
		sh.mu.Lock()
		vs := &vehicleState{ecus: make(map[string]*ecuState, len(ecus))}
		for name, ss := range ecus {
			vs.ecus[name] = &ecuState{streamState: ss}
		}
		sh.vehicles[vehicle] = vs
		sh.mu.Unlock()
	}
	for _, blob := range st.Records {
		rec, err := gateway.Unmarshal(blob)
		if err != nil {
			return fmt.Errorf("fleet: snapshot record: %w", err)
		}
		vehicle, _, ok := strings.Cut(rec.ECU, "/")
		if !ok {
			return fmt.Errorf("fleet: snapshot record %q has no vehicle prefix", rec.ECU)
		}
		sh := s.shards[s.ShardOf(vehicle)]
		sh.mu.Lock()
		sh.collector.Store(rec)
		sh.mu.Unlock()
	}
	return nil
}

// applyEntry replays one WAL commit entry: the offer-time counter
// increments a live ingest would have made, then the shared commit
// fold. Both roads — live ingest and replay — land on identical state.
func (s *Server) applyEntry(lsn uint64, entry []byte) error {
	e, err := decodeCommitEntry(entry)
	if err != nil {
		return err
	}
	sh := s.shards[s.ShardOf(e.vehicle)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	es := sh.stream(e.vehicle, e.ecu)
	sh.stats.Chunks += e.chunks
	sh.stats.ChunkErrors += e.chunkErrors
	sh.stats.SessionsOpened++
	var rec gateway.Record
	if e.outcome == entryStored {
		if rec, err = gateway.Unmarshal(e.blob); err != nil {
			return fmt.Errorf("fleet: commit entry record: %w", err)
		}
	}
	sh.applyCommit(es, e.outcome, e.session, e.chunks, e.chunkErrors, rec, e.vehicle, e.ecu)
	return nil
}
