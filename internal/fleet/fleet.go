// Package fleet scales the paper's central collection task b^R from
// one vehicle to a fleet: a long-running multi-tenant diagnosis
// service into which many vehicles concurrently stream their ECUs'
// BIST fail data over the reliable chunked sessions of the gateway
// package (SDVDiag's ingest-analyze-report shape).
//
// Per-vehicle session state is sharded across N lock-striped shards
// (vehicle-ID hash selects the shard); each shard owns its reassembly
// Assemblers, its bounded fail-memory Collector, and its session
// counters, so ingest from different vehicles contends only within a
// shard. Memory is bounded end to end: the per-shard Collector is a
// ring of PerShardRecords slots, the number of concurrently open
// reassembly sessions and tracked vehicles is capped, and hitting a
// cap rejects the session with a typed error — the sending vehicle
// falls back to the session layer's degraded mode (fail data stays in
// local b^D storage) and retries later, exactly as it would on a
// degraded bus.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtc"
	"repro/internal/durable"
	"repro/internal/gateway"
	"repro/internal/obs"
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// Shards is the number of lock stripes (default 8).
	Shards int
	// PerShardRecords bounds each shard's fail-memory ring
	// (gateway.Collector Capacity; default 4096).
	PerShardRecords int
	// PerShardSessions bounds the concurrently open reassembly sessions
	// per shard (default 1024). Opening one beyond the cap is rejected
	// with ErrSessionsFull.
	PerShardSessions int
	// PerShardVehicles bounds the vehicles tracked per shard
	// (0 = unbounded). A new vehicle beyond the cap is rejected with
	// ErrVehiclesFull.
	PerShardVehicles int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.PerShardRecords <= 0 {
		c.PerShardRecords = 4096
	}
	if c.PerShardSessions <= 0 {
		c.PerShardSessions = 1024
	}
	return c
}

// Typed ingest errors, distinguishable with errors.Is. The
// backpressure pair (ErrSessionsFull, ErrVehiclesFull) tells the
// sender to degrade into local storage and retry later; the protocol
// errors mark streams that can never complete.
var (
	// ErrSessionsFull rejects a new session on a shard whose reassembly
	// slots are exhausted — backpressure, not failure.
	ErrSessionsFull = errors.New("fleet: shard reassembly sessions exhausted")
	// ErrVehiclesFull rejects the first session of a vehicle on a shard
	// whose vehicle table is full.
	ErrVehiclesFull = errors.New("fleet: shard vehicle table full")
	// ErrUnknownSession marks a non-initial chunk for a stream with no
	// open session (never opened, or already completed).
	ErrUnknownSession = errors.New("fleet: chunk for unknown session")
	// ErrStaleSession marks a session number at or below the last
	// completed one of its (vehicle, ECU) stream — a replay.
	ErrStaleSession = errors.New("fleet: stale session number")
	// ErrECUMismatch marks a completed record whose embedded ECU name
	// differs from the stream it arrived on.
	ErrECUMismatch = errors.New("fleet: record names a different ECU than its stream")
)

// Server is the fleet-scale diagnosis service. All methods are safe
// for concurrent use.
type Server struct {
	cfg    Config
	shards []*shard

	// arch, when set, grounds the DTC repair rollup of Summary in an
	// E/E-architecture's trouble codes. Set before serving.
	arch *Arch

	// obs, when set, times chunk accepts and session assembly and marks
	// backpressure rejections. Set before serving.
	obs *obs.Tracer

	// store, when set via OpenDurable, write-ahead-logs every committed
	// session before it is applied, making acknowledged evidence
	// crash-durable. nil keeps the original in-RAM semantics.
	store *durable.Store
	// storageRejects counts ingest calls bounced by degraded storage.
	storageRejects atomic.Uint64
}

// New builds a server with cfg's shard layout.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i] = &shard{
			srv:       s,
			cfg:       cfg,
			collector: gateway.Collector{Capacity: cfg.PerShardRecords},
			vehicles:  make(map[string]*vehicleState),
		}
	}
	return s
}

// Arch is the architectural context of the fleet's DTC rollup: the
// trouble codes of the E/E-architecture's functional applications
// (dtc.DeriveCodes), whose ambiguity sets the structural fail data is
// compared against.
type Arch struct {
	Codes []dtc.TroubleCode
}

// SetArch attaches the architectural context. Call before serving;
// the field is read without synchronization.
func (s *Server) SetArch(a *Arch) { s.arch = a }

// SetObs attaches the observability tracer. Call before serving; the
// field is read without synchronization. Purely observational: ingest
// outcomes and summaries are byte-identical with or without a tracer.
func (s *Server) SetObs(t *obs.Tracer) {
	s.obs = t
	for _, sh := range s.shards {
		sh.obs = t
	}
}

// ShardOf returns the shard index owning a vehicle (32-bit FNV-1a of
// the ID).
func (s *Server) ShardOf(vehicle string) int {
	h := uint32(2166136261)
	for i := 0; i < len(vehicle); i++ {
		h ^= uint32(vehicle[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.shards)))
}

// shard is one lock stripe: a bounded fail memory, the per-vehicle
// session bookkeeping of its vehicles (each stream holding its open
// reassembly session), and its counters. Nothing in it is shared with
// another shard.
type shard struct {
	mu        sync.Mutex
	srv       *Server
	cfg       Config
	collector gateway.Collector
	free      []*openSession // recycled sessions (pool discipline)
	vehicles  map[string]*vehicleState
	// stats are the shard's live counters; its OpenSessions gauge counts
	// the streams with an open reassembly session.
	stats IngestStats
	// committed is the portion of stats already folded into commit
	// entries — the only counters a snapshot persists (summed over the
	// shards). stats also counts in-flight wire activity that a crash
	// legitimately loses (the senders redo it identically on resume).
	committed IngestStats

	// entryBuf is the reused WAL-entry scratch buffer of the durable
	// commit path.
	entryBuf []byte

	obs *obs.Tracer
}

// openSession is one in-flight reassembly: the assembler plus the wire
// deltas this session has accrued. The deltas are folded into the
// session's durable commit entry on completion — state that was never
// committed simply never happened as far as recovery is concerned, and
// the sender redoes it identically on resume.
type openSession struct {
	asm         *gateway.Assembler
	chunks      uint64 // chunks offered while this session was open
	chunkErrors uint64 // assembler rejections among them
	openedAt    time.Time
}

// vehicleState is the per-vehicle session bookkeeping.
type vehicleState struct {
	ecus map[string]*ecuState
}

// ecuState tracks one (vehicle, ECU) stream. An ECU streams its
// sessions sequentially, so at most one session per stream is open at
// a time.
type ecuState struct {
	// open is the stream's in-flight reassembly, nil between sessions.
	open *openSession
	// key is "vehicle/ecu", the ECU name of the stream's stored records,
	// built on the stream's first stored record.
	key string

	streamState
}

// streamState is the persisted part of a stream: a snapshot stores it
// whole under these JSON tags.
type streamState struct {
	// Sessions counts completed (stored) sessions.
	Sessions uint32 `json:"s"`
	// LastSession is the highest completed session number.
	LastSession uint32 `json:"ls"`
	// LastCommitted is the highest session number whose outcome —
	// stored or corrupt — was committed. The stale check dedups on it,
	// so a session replayed after a crash-recovery (or a sender resume)
	// can never be double-counted.
	LastCommitted uint32 `json:"lc"`
	// FailSessions counts completed sessions with non-empty fail data.
	FailSessions uint32 `json:"fs"`
	// Failing mirrors the most recent session's verdict.
	Failing bool `json:"f,omitempty"`
	// LastEntries/LastWindows describe the most recent fail data.
	LastEntries int `json:"le,omitempty"`
	LastWindows int `json:"lw,omitempty"`
}

// status is the stream's public view under its ECU name.
func (es *ecuState) status(name string) ECUStatus {
	return ECUStatus{
		ECU:          name,
		Sessions:     es.Sessions,
		LastSession:  es.LastSession,
		FailSessions: es.FailSessions,
		Failing:      es.Failing,
		LastEntries:  es.LastEntries,
		LastWindows:  es.LastWindows,
	}
}

// IngestChunk processes one delivered chunk of a (vehicle, ECU)
// stream. A chunk with Seq 0 opens the stream's session (subject to
// the shard's backpressure caps); the chunk completing a session
// parses and stores the record and retires the assembler. Errors are
// typed: backpressure (ErrSessionsFull, ErrVehiclesFull) means "retry
// later", assembler errors (gateway.ErrChunkCRC, ErrChunkGap,
// ErrChunkDuplicate) mean "retransmit", the rest are protocol
// violations.
func (s *Server) IngestChunk(vehicle, ecu string, c gateway.Chunk) error {
	if s.store != nil && s.store.Degraded() {
		// Degraded read-only mode: the WAL can no longer honor the
		// ack-durability contract, so nothing new is accepted. Surfaced
		// as backpressure — senders fall back to local storage exactly
		// as they would on a full shard.
		s.storageRejects.Add(1)
		s.obs.Mark(obs.StageBackpressure)
		return fmt.Errorf("fleet: %w", durable.ErrStorageDegraded)
	}
	sp := s.obs.Start(obs.StageChunkAccept)
	err := s.shards[s.ShardOf(vehicle)].ingest(vehicle, ecu, c)
	sp.End()
	if err != nil && s.obs != nil && (errors.Is(err, ErrSessionsFull) || errors.Is(err, ErrVehiclesFull) ||
		errors.Is(err, durable.ErrStorageDegraded)) {
		s.obs.Mark(obs.StageBackpressure)
	}
	return err
}

func (sh *shard) ingest(vehicle, ecu string, c gateway.Chunk) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.Chunks++

	if sh.cfg.PerShardVehicles > 0 && len(sh.vehicles) >= sh.cfg.PerShardVehicles && sh.vehicles[vehicle] == nil {
		sh.stats.SessionsRejected++
		return fmt.Errorf("%w: %d tracked", ErrVehiclesFull, len(sh.vehicles))
	}
	es := sh.stream(vehicle, ecu)

	os := es.open
	if os != nil && c.Session != os.asm.Session && c.Seq == 0 {
		// The sender abandoned the open session (degraded-mode fallback)
		// and opened a fresh one with a bumped counter: the new session
		// supersedes the half-assembled old one instead of wedging the
		// stream. Its uncommitted deltas die with it. Replays still
		// bounce off the stale check below.
		sh.closeSession(es)
		os = nil
	}
	if os == nil {
		if c.Seq != 0 {
			return fmt.Errorf("%w: %s/%s seq %d", ErrUnknownSession, vehicle, ecu, c.Seq)
		}
		if es.LastCommitted > 0 && c.Session <= es.LastCommitted {
			sh.stats.StaleSessions++
			return fmt.Errorf("%w: %s/%s session %d, last committed %d",
				ErrStaleSession, vehicle, ecu, c.Session, es.LastCommitted)
		}
		if sh.stats.OpenSessions >= sh.cfg.PerShardSessions {
			sh.stats.SessionsRejected++
			return fmt.Errorf("%w: %d open", ErrSessionsFull, sh.stats.OpenSessions)
		}
		var err error
		if os, err = sh.takeSession(c.Session, c.Total); err != nil {
			return err
		}
		es.open = os
		sh.stats.OpenSessions++
		sh.stats.SessionsOpened++
		if sh.obs != nil {
			os.openedAt = time.Now()
		}
	}

	os.chunks++
	if err := os.asm.Accept(c); err != nil {
		sh.stats.ChunkErrors++
		os.chunkErrors++
		return err
	}
	if !os.asm.Complete() {
		return nil
	}

	// Session complete: decide the outcome, commit it to the WAL (when
	// durable), then apply it. State mutations happen strictly after a
	// successful commit, so RAM never gets ahead of the log.
	blob, err := os.asm.Bytes()
	if err != nil {
		return err // unreachable: Complete() held
	}
	rec, uerr := gateway.Unmarshal(blob)
	outcome := entryStored
	var retErr error
	switch {
	case uerr != nil:
		outcome = entryCorrupt
		retErr = fmt.Errorf("fleet: reassembled record corrupt: %w", uerr)
	case rec.ECU != ecu:
		outcome = entryCorrupt
		retErr = fmt.Errorf("%w: stream %s/%s carries record of %q", ErrECUMismatch, vehicle, ecu, rec.ECU)
	}

	if sh.srv.store != nil {
		entryBlob := blob
		if outcome == entryCorrupt {
			entryBlob = nil
		}
		sh.entryBuf = appendCommitEntry(sh.entryBuf[:0], outcome, vehicle, ecu, c.Session, os.chunks, os.chunkErrors, entryBlob)
		if _, err := sh.srv.store.Append(sh.entryBuf); err != nil {
			// Nothing was applied: the session is retired unacked and
			// the sender's retries hit the degraded fast path above.
			sh.closeSession(es)
			return fmt.Errorf("fleet: commit %s/%s session %d: %w", vehicle, ecu, c.Session, err)
		}
	}

	if sh.obs != nil && !os.openedAt.IsZero() {
		sh.obs.ObserveSince(obs.StageSessionAssembly, os.openedAt)
	}
	sh.applyCommit(es, outcome, c.Session, os.chunks, os.chunkErrors, rec, vehicle, ecu)
	sh.closeSession(es)
	return retErr
}

// applyCommit folds one committed session outcome into the shard —
// the single mutation point shared by live ingest and WAL replay, so
// both roads lead to identical state.
func (sh *shard) applyCommit(es *ecuState, outcome byte, session uint32, chunks, chunkErrors uint64, rec gateway.Record, vehicle, ecu string) {
	cc := &sh.committed
	cc.Chunks += chunks
	cc.ChunkErrors += chunkErrors
	cc.SessionsOpened++
	es.LastCommitted = session
	if outcome == entryCorrupt {
		sh.stats.CorruptRecords++
		cc.CorruptRecords++
		return
	}
	if es.key == "" {
		es.key = vehicle + "/" + ecu
	}
	stored := rec
	stored.ECU = es.key
	sh.collector.Store(stored)

	es.Sessions++
	es.LastSession = rec.Session
	es.Failing = !rec.Fail.Pass()
	es.LastEntries = len(rec.Fail.Entries)
	es.LastWindows = rec.Fail.Windows
	if es.Failing {
		es.FailSessions++
	}
	sh.stats.SessionsCompleted++
	cc.SessionsCompleted++
}

// stream returns the (vehicle, ECU) stream's state, creating the
// vehicle and the stream on first sight.
func (sh *shard) stream(vehicle, ecu string) *ecuState {
	vs := sh.vehicles[vehicle]
	if vs == nil {
		vs = &vehicleState{ecus: make(map[string]*ecuState)}
		sh.vehicles[vehicle] = vs
	}
	es := vs.ecus[ecu]
	if es == nil {
		es = &ecuState{}
		vs.ecus[ecu] = es
	}
	return es
}

// takeSession arms a pooled open session, or a fresh one.
func (sh *shard) takeSession(session uint32, total uint16) (*openSession, error) {
	if n := len(sh.free); n > 0 {
		os := sh.free[n-1]
		sh.free = sh.free[:n-1]
		if err := os.asm.Reset(session, total); err != nil {
			sh.free = append(sh.free, os)
			return nil, err
		}
		os.chunks, os.chunkErrors, os.openedAt = 0, 0, time.Time{}
		return os, nil
	}
	asm, err := gateway.NewAssembler(session, total)
	if err != nil {
		return nil, err
	}
	return &openSession{asm: asm}, nil
}

// closeSession retires the stream's open session to the free list,
// keeping its assembler's buffer capacity for the next session.
func (sh *shard) closeSession(es *ecuState) {
	if len(sh.free) < 64 {
		sh.free = append(sh.free, es.open)
	}
	es.open = nil
	sh.stats.OpenSessions--
}
