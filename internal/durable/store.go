package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrStorageDegraded marks a store whose WAL can no longer accept
// writes (fsync failure, disk full). The condition is sticky: every
// Append fails with it until the process restarts, turning the owning
// service read-only — senders see it as backpressure and fall back to
// their degraded local storage instead of losing acknowledged data to
// a lying log.
var ErrStorageDegraded = errors.New("durable: storage degraded, log is read-only")

// Options configures a Store. FS, State, Restore and Apply are the
// integration seam to the owning service.
type Options struct {
	// FS is the filesystem (default OSFS).
	FS FS

	// SnapshotEvery triggers a snapshot after that many appends since
	// the last one (default 4096; negative disables snapshots entirely,
	// including the one on Close — recovery then replays the whole WAL).
	SnapshotEvery int
	// SnapshotInterval additionally snapshots on a timer when positive.
	SnapshotInterval time.Duration

	// State captures the owner's committed state for a snapshot,
	// returning the serialized bytes and the highest LSN the capture
	// covers. It must freeze appends for the duration of the call (the
	// fleet server takes every shard lock).
	State func() ([]byte, uint64, error)
	// Restore resets the owner to a snapshot's state.
	Restore func(data []byte) error
	// Apply folds one WAL entry into the owner's state during recovery.
	Apply func(lsn uint64, entry []byte) error

	// OnCommit, when set, runs after each durable append with its LSN —
	// the chaos harness's crash-injection point.
	OnCommit func(lsn uint64)

	// Obs, when non-nil, times wal_append, snapshot and recover stages.
	Obs *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	return o
}

// Recovery describes what Open reconstructed.
type Recovery struct {
	// SnapshotLSN is the LSN covered by the snapshot that seeded the
	// state (0 when recovery started empty).
	SnapshotLSN uint64
	// Entries is the number of WAL entries replayed on top.
	Entries int
	// LastLSN is the highest LSN recovered.
	LastLSN uint64
	// TruncatedBytes counts bytes cut from the log at a torn or corrupt
	// frame; RemovedSegments counts whole segments discarded beyond it.
	TruncatedBytes  int64
	RemovedSegments int
	// SkippedSnapshots counts corrupt snapshots bypassed for an older
	// valid one.
	SkippedSnapshots int
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Store is a WAL + snapshot persistence engine. Append is safe for
// concurrent use; concurrent appends share fsyncs (group commit).
type Store struct {
	opts Options
	dir  string

	walMu   sync.Mutex
	bw      *bufio.Writer
	seg     File
	segBase uint64
	nextLSN uint64 // next LSN to assign (walMu)
	syncing bool   // an fsync is in flight (walMu)
	synced  *sync.Cond

	frameBuf []byte // scratch for appendFrame (walMu)

	lastLSN  atomic.Uint64 // highest durably committed LSN
	snapLSN  atomic.Uint64 // LSN covered by the newest installed snapshot
	degraded atomic.Bool
	walErr   error // first fatal WAL error (walMu)

	snapMu sync.Mutex // serializes snapshot writers

	appends   atomic.Uint64
	syncs     atomic.Uint64
	snapshots atomic.Uint64
	snapFails atomic.Uint64

	snapCh    chan struct{}
	stopCh    chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
	done      sync.WaitGroup
}

// Stats is a point-in-time view of the store's activity counters.
type Stats struct {
	Appends          uint64
	Syncs            uint64
	Snapshots        uint64
	SnapshotFailures uint64
	LastLSN          uint64
	SnapshotLSN      uint64
	Degraded         bool
}

// Open recovers the store in dir (creating it if needed) and leaves it
// ready for appends: the newest valid snapshot is handed to
// opts.Restore, the WAL tail above it is replayed through opts.Apply,
// and the log is truncated at the first torn frame.
func Open(dir string, opts Options) (*Store, Recovery, error) {
	opts = opts.withDefaults()
	s := &Store{
		opts:   opts,
		dir:    dir,
		snapCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	s.synced = sync.NewCond(&s.walMu)
	start := time.Now()
	sp := opts.Obs.Start(obs.StageRecover)
	rec, err := s.recover()
	sp.End()
	if err != nil {
		return nil, rec, err
	}
	rec.Elapsed = time.Since(start)
	return s, rec, nil
}

// Start launches the background snapshot loop. Separate from Open so
// the owner can finish wiring itself (the State callback may read the
// store) before the first asynchronous snapshot can fire. Idempotent.
func (s *Store) Start() {
	s.startOnce.Do(func() {
		s.done.Add(1)
		go s.loop()
	})
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// recover scans dir, restores the newest valid snapshot, replays the
// WAL tail, repairs tears, and positions the writer.
func (s *Store) recover() (Recovery, error) {
	var rec Recovery
	fs := s.opts.FS
	if err := fs.MkdirAll(s.dir); err != nil {
		return rec, fmt.Errorf("durable: create dir: %w", err)
	}
	names, err := fs.ReadDir(s.dir)
	if err != nil {
		return rec, fmt.Errorf("durable: list dir: %w", err)
	}
	var segs, snaps []uint64
	for _, name := range names {
		if base, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segs = append(segs, base)
		} else if lsn, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, lsn)
		} else {
			// Tmp leftovers from an interrupted snapshot are garbage.
			fs.Remove(s.path(name))
		}
	}

	// Newest valid snapshot wins; corrupt ones fall through to older
	// ones (and ultimately to a full WAL replay from LSN 0).
	for i := len(snaps) - 1; i >= 0; i-- {
		lsn := snaps[i]
		data, err := s.loadSnapshot(lsn)
		if err != nil {
			rec.SkippedSnapshots++
			continue
		}
		if s.opts.Restore != nil {
			if err := s.opts.Restore(data); err != nil {
				return rec, fmt.Errorf("durable: restore snapshot LSN %d: %w", lsn, err)
			}
		}
		rec.SnapshotLSN = lsn
		break
	}
	s.snapLSN.Store(rec.SnapshotLSN)

	// Replay segments in base-LSN order, stopping at the first tear
	// that leaves a gap. A torn segment is cut to its valid frames; when
	// the next segment starts at or before the LSN after everything
	// recovered so far, no LSN is missing and replay goes on. It can
	// start before: a snapshot captured while appends were landing
	// covers LSNs past the base of the segment its rotation opened.
	last := rec.SnapshotLSN
	highest := rec.SnapshotLSN
	for i, base := range segs {
		f, err := fs.Open(s.path(segName(base)))
		if err != nil {
			return rec, fmt.Errorf("durable: open segment %d: %w", base, err)
		}
		res, err := replaySegment(f, base, last, func(lsn uint64, entry []byte) error {
			rec.Entries++
			if s.opts.Apply != nil {
				return s.opts.Apply(lsn, entry)
			}
			return nil
		})
		f.Close()
		if err != nil {
			return rec, err
		}
		if res.lastLSN > highest {
			highest = res.lastLSN
		}
		if res.torn {
			rec.TruncatedBytes += res.tornBytes
			name := s.path(segName(base))
			if res.validBytes == 0 {
				if err := fs.Remove(name); err != nil {
					return rec, fmt.Errorf("durable: drop torn segment %d: %w", base, err)
				}
				rec.RemovedSegments++
			} else if err := fs.Truncate(name, res.validBytes); err != nil {
				return rec, fmt.Errorf("durable: truncate torn segment %d: %w", base, err)
			}
			if end := max(last, res.lastLSN); i+1 < len(segs) && segs[i+1] <= end+1 {
				last = end
				continue
			}
			for _, later := range segs[i+1:] {
				if err := fs.Remove(s.path(segName(later))); err != nil {
					return rec, fmt.Errorf("durable: drop segment %d past tear: %w", later, err)
				}
				rec.RemovedSegments++
			}
			break
		}
		if res.lastLSN > last {
			last = res.lastLSN
		}
	}
	rec.LastLSN = highest
	if rec.SnapshotLSN > rec.LastLSN {
		rec.LastLSN = rec.SnapshotLSN
	}
	s.lastLSN.Store(rec.LastLSN)
	s.nextLSN = rec.LastLSN + 1

	// Open a fresh segment for the tail. Appending to a repaired
	// segment would be fine too, but a clean cut keeps the
	// base-LSN-names-the-first-frame invariant trivially true.
	if err := s.openSegment(s.nextLSN); err != nil {
		return rec, err
	}
	if err := fs.SyncDir(s.dir); err != nil {
		return rec, fmt.Errorf("durable: sync dir: %w", err)
	}
	return rec, nil
}

// openSegment creates and syncs a new WAL segment (walMu not required:
// only recovery and rotation call it, both serialized).
func (s *Store) openSegment(base uint64) error {
	f, err := s.opts.FS.Create(s.path(segName(base)))
	if err != nil {
		return fmt.Errorf("durable: create segment %d: %w", base, err)
	}
	if _, err := f.Write(segmentHeader(base)); err != nil {
		f.Close()
		return fmt.Errorf("durable: write segment header %d: %w", base, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: sync segment header %d: %w", base, err)
	}
	if s.seg != nil {
		s.seg.Close()
	}
	s.seg = f
	s.segBase = base
	s.bw = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// Append assigns the next LSN to entry, writes its frame, and returns
// once the frame is fsynced — the ack-durability point. Concurrent
// appenders coalesce onto one fsync (group commit). On a degraded
// store it fails fast with ErrStorageDegraded.
func (s *Store) Append(entry []byte) (uint64, error) {
	if s.degraded.Load() {
		return 0, s.degradedErr()
	}
	sp := s.opts.Obs.Start(obs.StageWALAppend)
	defer sp.End()

	s.walMu.Lock()
	if s.walErr != nil {
		err := s.degradedErrLocked()
		s.walMu.Unlock()
		return 0, err
	}
	lsn := s.nextLSN
	s.nextLSN++
	s.frameBuf = appendFrame(s.frameBuf[:0], lsn, entry)
	if _, err := s.bw.Write(s.frameBuf); err != nil {
		s.failLocked(err)
		err = s.degradedErrLocked()
		s.walMu.Unlock()
		return 0, err
	}
	s.appends.Add(1)

	// Group commit: wait for an in-flight fsync to finish (it may not
	// cover our frame), then either our frame is already durable or we
	// run the fsync for everything buffered so far.
	for s.syncing {
		s.synced.Wait()
		if s.walErr != nil {
			err := s.degradedErrLocked()
			s.walMu.Unlock()
			return 0, err
		}
		if s.lastLSN.Load() >= lsn {
			s.walMu.Unlock()
			s.finishCommit(lsn)
			return lsn, nil
		}
	}
	s.syncing = true
	syncTo := s.nextLSN - 1
	if err := s.bw.Flush(); err != nil {
		s.failLocked(err)
		s.syncing = false
		s.synced.Broadcast()
		err = s.degradedErrLocked()
		s.walMu.Unlock()
		return 0, err
	}
	seg := s.seg
	s.walMu.Unlock()

	serr := seg.Sync()

	s.walMu.Lock()
	s.syncing = false
	if serr != nil {
		s.failLocked(serr)
		s.synced.Broadcast()
		err := s.degradedErrLocked()
		s.walMu.Unlock()
		return 0, err
	}
	s.syncs.Add(1)
	if syncTo > s.lastLSN.Load() {
		s.lastLSN.Store(syncTo)
	}
	s.synced.Broadcast()
	s.walMu.Unlock()
	s.finishCommit(lsn)
	return lsn, nil
}

// finishCommit runs the post-durability hooks for one committed LSN.
func (s *Store) finishCommit(lsn uint64) {
	if s.opts.OnCommit != nil {
		s.opts.OnCommit(lsn)
	}
	if s.opts.SnapshotEvery > 0 && lsn-s.snapLSN.Load() >= uint64(s.opts.SnapshotEvery) {
		select {
		case s.snapCh <- struct{}{}:
		default:
		}
	}
}

// failLocked records the first fatal WAL error and flips the store
// into sticky degraded mode. Callers hold walMu.
func (s *Store) failLocked(err error) {
	if s.walErr == nil {
		s.walErr = err
	}
	s.degraded.Store(true)
}

func (s *Store) degradedErr() error {
	s.walMu.Lock()
	cause := s.walErr
	s.walMu.Unlock()
	if cause != nil {
		return fmt.Errorf("%w: %v", ErrStorageDegraded, cause)
	}
	return ErrStorageDegraded
}

// Degraded reports whether the store has turned read-only.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// LastLSN returns the highest durably committed LSN.
func (s *Store) LastLSN() uint64 { return s.lastLSN.Load() }

// StatsSnapshot returns the activity counters.
func (s *Store) StatsSnapshot() Stats {
	return Stats{
		Appends:          s.appends.Load(),
		Syncs:            s.syncs.Load(),
		Snapshots:        s.snapshots.Load(),
		SnapshotFailures: s.snapFails.Load(),
		LastLSN:          s.lastLSN.Load(),
		SnapshotLSN:      s.snapLSN.Load(),
		Degraded:         s.degraded.Load(),
	}
}

// RegisterMetrics exposes the store on reg.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("durable_wal_appends_total", "WAL entries appended",
		func() float64 { return float64(s.appends.Load()) })
	reg.CounterFunc("durable_wal_syncs_total", "WAL fsyncs (group commits)",
		func() float64 { return float64(s.syncs.Load()) })
	reg.CounterFunc("durable_snapshots_total", "state snapshots installed",
		func() float64 { return float64(s.snapshots.Load()) })
	reg.CounterFunc("durable_snapshot_failures_total", "snapshot attempts that failed",
		func() float64 { return float64(s.snapFails.Load()) })
	reg.GaugeFunc("durable_wal_last_lsn", "highest durably committed LSN",
		func() float64 { return float64(s.lastLSN.Load()) })
	reg.GaugeFunc("durable_snapshot_lsn", "LSN covered by the newest snapshot",
		func() float64 { return float64(s.snapLSN.Load()) })
}

// loop services snapshot triggers until Close.
func (s *Store) loop() {
	defer s.done.Done()
	var tick <-chan time.Time
	if s.opts.SnapshotInterval > 0 {
		t := time.NewTicker(s.opts.SnapshotInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.snapCh:
		case <-tick:
		}
		s.Snapshot()
	}
}

// Snapshot captures the owner's state and installs it atomically
// (write temp, fsync, rename, sync dir), then rotates the WAL and
// prunes segments the oldest retained snapshot covers. Failures are
// counted but non-fatal: the WAL alone still recovers everything.
func (s *Store) Snapshot() error {
	if s.opts.SnapshotEvery < 0 || s.opts.State == nil {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	sp := s.opts.Obs.Start(obs.StageSnapshot)
	defer sp.End()

	data, lsn, err := s.opts.State()
	if err != nil {
		s.snapFails.Add(1)
		return fmt.Errorf("durable: capture state: %w", err)
	}
	if lsn <= s.snapLSN.Load() && s.snapLSN.Load() > 0 {
		return nil // nothing committed since the last snapshot
	}
	buf := make([]byte, 0, len(snapMagic)+16+len(data))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(data))
	buf = append(buf, data...)
	if err := WriteFileAtomic(s.opts.FS, s.path(snapName(lsn)), buf); err != nil {
		s.snapFails.Add(1)
		return fmt.Errorf("durable: install snapshot: %w", err)
	}
	s.snapLSN.Store(lsn)
	s.snapshots.Add(1)
	s.gc()
	return nil
}

// loadSnapshot reads and validates one snapshot file.
func (s *Store) loadSnapshot(lsn uint64) ([]byte, error) {
	f, err := s.opts.FS.Open(s.path(snapName(lsn)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	hlen := len(snapMagic) + 16
	if len(raw) < hlen || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("durable: snapshot %d: bad header", lsn)
	}
	if got := binary.LittleEndian.Uint64(raw[len(snapMagic):]); got != lsn {
		return nil, fmt.Errorf("durable: snapshot %d: header names LSN %d", lsn, got)
	}
	n := binary.LittleEndian.Uint32(raw[len(snapMagic)+8:])
	crc := binary.LittleEndian.Uint32(raw[len(snapMagic)+12:])
	data := raw[hlen:]
	if uint32(len(data)) != n || crc32.ChecksumIEEE(data) != crc {
		return nil, fmt.Errorf("durable: snapshot %d: truncated or corrupt body", lsn)
	}
	return data, nil
}

// keepSnapshots is how many of the newest snapshots gc retains. WAL
// segments are pruned only once the OLDEST retained snapshot covers
// them, so a corrupt newest snapshot never strands the log.
const keepSnapshots = 2

// gc rotates the WAL onto a fresh segment and removes snapshots and
// segments made redundant by the retention policy. Best-effort.
func (s *Store) gc() {
	fs := s.opts.FS

	// Rotate so the just-snapshotted history can be pruned out from
	// under an otherwise ever-growing active segment.
	s.walMu.Lock()
	if s.seg != nil && s.walErr == nil && s.nextLSN > s.segBase {
		if err := s.bw.Flush(); err == nil {
			if err := s.seg.Sync(); err == nil {
				if err := s.openSegment(s.nextLSN); err != nil {
					s.failLocked(err)
				}
			} else {
				s.failLocked(err)
			}
		} else {
			s.failLocked(err)
		}
	}
	s.walMu.Unlock()

	names, err := fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var segs, snaps []uint64
	for _, name := range names {
		if base, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segs = append(segs, base)
		} else if lsn, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, lsn)
		}
	}
	for len(snaps) > keepSnapshots {
		fs.Remove(s.path(snapName(snaps[0])))
		snaps = snaps[1:]
	}
	if len(snaps) == 0 {
		return
	}
	// A segment is dead once the next segment starts at or below the
	// oldest retained snapshot's cover — every frame in it is then
	// reflected in all snapshots we may fall back to.
	cover := snaps[0]
	for len(segs) >= 2 && segs[1] <= cover+1 {
		fs.Remove(s.path(segName(segs[0])))
		segs = segs[1:]
	}
	fs.SyncDir(s.dir)
}

// Kill abandons the store without flushing, syncing, or snapshotting —
// the crash-simulation hook for tests (a real SIGKILL needs no call at
// all). Unsynced buffered frames are lost, exactly as they would be to
// the page cache.
func (s *Store) Kill() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.done.Wait()
	s.walMu.Lock()
	s.failLocked(errors.New("durable: store killed"))
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
	s.walMu.Unlock()
}

// Close stops the snapshot loop, writes a final snapshot (unless
// disabled), flushes and closes the WAL. The store is unusable after.
func (s *Store) Close() error {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.done.Wait()
	var first error
	if !s.degraded.Load() {
		if err := s.Snapshot(); err != nil {
			first = err
		}
	}
	s.walMu.Lock()
	if s.seg != nil && s.walErr == nil {
		err := s.bw.Flush()
		if err == nil {
			err = s.seg.Sync()
		}
		if err != nil && first == nil {
			first = err
		}
	}
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
		s.bw = nil
	}
	if first == nil && s.walErr != nil {
		first = s.degradedErrLocked()
	}
	// Reject any straggler Append cleanly instead of panicking on the
	// closed writer.
	if s.walErr == nil {
		s.walErr = errors.New("durable: store closed")
	}
	s.degraded.Store(true)
	s.walMu.Unlock()
	return first
}

func (s *Store) degradedErrLocked() error {
	if s.walErr != nil {
		return fmt.Errorf("%w: %v", ErrStorageDegraded, s.walErr)
	}
	return ErrStorageDegraded
}
