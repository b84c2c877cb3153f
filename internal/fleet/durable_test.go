package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/gateway"
)

// chaosPopulation is the shared load profile of the durability tests:
// small enough to iterate over many seeds, lossy enough (1e-5) that
// the retry machinery actually fires, and clean enough that every
// session eventually commits — the regime where a recovered run must
// be byte-identical to an uninterrupted one.
func chaosPopulation(workers int) PopulationConfig {
	return PopulationConfig{
		Vehicles: 12, ECUs: []string{"ecuA", "ecuB"}, SessionsPerECU: 3,
		FailProb: 0.4, Seed: 99, ErrorRate: 1e-5, Workers: workers,
	}
}

// referenceJSON runs cfg against a plain in-RAM server and returns its
// summary — the oracle every durable run is compared against.
func referenceJSON(t *testing.T, shards int, cfg PopulationConfig) []byte {
	t.Helper()
	srv := New(Config{Shards: shards})
	if _, err := RunPopulation(context.Background(), srv, cfg); err != nil {
		t.Fatal(err)
	}
	js, err := srv.SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

func openDurable(t *testing.T, shards int, fs durable.FS, cfg DurableConfig) (*Server, durable.Recovery) {
	t.Helper()
	srv := New(Config{Shards: shards})
	cfg.Dir = "data"
	cfg.FS = fs
	rec, err := srv.OpenDurable(cfg)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return srv, rec
}

func summaryJSON(t *testing.T, srv *Server) []byte {
	t.Helper()
	js, err := srv.SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestDurableOnVsOff: turning the WAL on must not change a single byte
// of the summary, and a clean close/reopen must restore it exactly.
func TestDurableOnVsOff(t *testing.T) {
	cfg := chaosPopulation(4)
	want := referenceJSON(t, 4, cfg)

	fs := durable.NewMemFS()
	srv, _ := openDurable(t, 4, fs, DurableConfig{SnapshotEvery: 16})
	if _, err := RunPopulation(context.Background(), srv, cfg); err != nil {
		t.Fatal(err)
	}
	if got := summaryJSON(t, srv); !bytes.Equal(got, want) {
		t.Fatalf("durable-on summary differs:\n%s\nvs\n%s", got, want)
	}
	if err := srv.CloseDurable(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Clean reopen: everything came through the final snapshot.
	srv2, rec := openDurable(t, 4, fs, DurableConfig{})
	if rec.LastLSN == 0 {
		t.Fatal("reopen recovered nothing")
	}
	if got := summaryJSON(t, srv2); !bytes.Equal(got, want) {
		t.Fatalf("reopened summary differs:\n%s\nvs\n%s", got, want)
	}
	if err := srv2.CloseDurable(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoveryShardWorkerMatrix: recovery lands on the identical
// summary no matter the shard count or worker count on either side of
// the restart — shard routing is recomputed, not persisted.
func TestDurableRecoveryShardWorkerMatrix(t *testing.T) {
	cfg := chaosPopulation(1)
	want := referenceJSON(t, 1, cfg)

	type side struct{ shards, workers int }
	pairs := []struct{ before, after side }{
		{side{1, 1}, side{8, 4}},
		{side{8, 4}, side{3, 2}},
		{side{5, 8}, side{1, 1}},
	}
	for _, p := range pairs {
		fs := durable.NewMemFS()
		run := cfg
		run.Workers = p.before.workers
		srv, _ := openDurable(t, p.before.shards, fs, DurableConfig{SnapshotEvery: 8})
		if _, err := RunPopulation(context.Background(), srv, run); err != nil {
			t.Fatal(err)
		}
		// Crash without the final snapshot: recovery must rebuild from
		// an intermediate snapshot plus the WAL tail.
		srv.KillDurable()
		fs.Crash(1)

		srv2, _ := openDurable(t, p.after.shards, fs, DurableConfig{})
		if got := summaryJSON(t, srv2); !bytes.Equal(got, want) {
			t.Fatalf("%+v: recovered summary differs:\n%s\nvs\n%s", p, got, want)
		}
		// All sessions committed, so a resumed population skips all.
		run.Workers = p.after.workers
		run.Resume = true
		res, err := RunPopulation(context.Background(), srv2, run)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sessions != 0 || res.Skipped != cfg.Vehicles*len(cfg.ECUs)*cfg.SessionsPerECU {
			t.Fatalf("%+v: resume sent %d sessions, skipped %d", p, res.Sessions, res.Skipped)
		}
		if got := summaryJSON(t, srv2); !bytes.Equal(got, want) {
			t.Fatalf("%+v: summary changed after no-op resume", p)
		}
		srv2.CloseDurable()
	}
}

// TestSeededCrashRecovery is the in-process chaos harness: interrupt
// the ingest at a seeded commit count, simulate the power cut
// (Kill + MemFS.Crash with a seeded partial tail), restart, resume the
// senders, and require the summary byte-identical to an uninterrupted
// run. Seeds sweep the crash point across the whole ingest and the
// torn-tail length across frames.
func TestSeededCrashRecovery(t *testing.T) {
	cfg := chaosPopulation(4)
	want := referenceJSON(t, 4, cfg)
	total := cfg.Vehicles * len(cfg.ECUs) * cfg.SessionsPerECU

	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fs := durable.NewMemFS()
			killAt := 1 + seed*uint64(total)/13 // crash points spread over the run

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			srv, _ := openDurable(t, 4, fs, DurableConfig{
				SnapshotEvery: 8,
				OnCommit: func(lsn uint64) {
					if lsn == killAt {
						cancel()
					}
				},
			})
			_, err := RunPopulation(ctx, srv, cfg)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
			srv.KillDurable()
			fs.Crash(seed)

			// Some crashes leave trailing garbage instead of a clean cut:
			// simulate by appending junk to every WAL segment.
			if seed%3 == 0 {
				names, err := fs.ReadDir("data")
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					if bytes.HasPrefix([]byte(name), []byte("wal-")) {
						data, err := fs.ReadFile("data/" + name)
						if err != nil {
							t.Fatal(err)
						}
						fs.WriteFile("data/"+name, append(data, 0xde, 0xad, 0xbe, 0xef))
					}
				}
			}

			srv2, rec := openDurable(t, 4, fs, DurableConfig{SnapshotEvery: 8})
			if rec.LastLSN < killAt {
				t.Fatalf("recovered LSN %d below acked commit %d", rec.LastLSN, killAt)
			}
			resume := cfg
			resume.Resume = true
			res, err := RunPopulation(context.Background(), srv2, resume)
			if err != nil {
				t.Fatal(err)
			}
			if res.Skipped < int(killAt) {
				t.Fatalf("resume skipped %d < %d acked sessions", res.Skipped, killAt)
			}
			if got := summaryJSON(t, srv2); !bytes.Equal(got, want) {
				t.Fatalf("recovered summary differs after crash at commit %d:\n%s\nvs\n%s", killAt, got, want)
			}
			if err := srv2.CloseDurable(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartialSessionCrash: a session cut down mid-reassembly is not
// committed — recovery must not see half a session, and redelivering
// it from scratch must land it exactly once.
func TestPartialSessionCrash(t *testing.T) {
	fs := durable.NewMemFS()
	srv, _ := openDurable(t, 2, fs, DurableConfig{})

	full := chunksFor(t, "ecuA", 1, failData(3))
	if len(full) < 3 {
		t.Fatalf("want ≥3 chunks, got %d", len(full))
	}
	ingestAll(t, srv, "veh00001", "ecuA", chunksFor(t, "ecuA", 1, failData(2))[:]) // committed stream
	for _, c := range full[:len(full)-1] {                                         // partial stream
		if err := srv.IngestChunk("veh00002", "ecuA", c); err != nil {
			t.Fatal(err)
		}
	}
	srv.KillDurable()
	fs.Crash(7)

	srv2, rec := openDurable(t, 2, fs, DurableConfig{})
	if rec.Entries != 1 && rec.LastLSN != 1 {
		t.Fatalf("want exactly the committed session recovered, got %+v", rec)
	}
	sum := srv2.Summary()
	if sum.SessionsCompleted != 1 || sum.OpenSessions != 0 {
		t.Fatalf("completed/open = %d/%d after recovery", sum.SessionsCompleted, sum.OpenSessions)
	}
	if got := srv2.LastCommitted("veh00002", "ecuA"); got != 0 {
		t.Fatalf("partial session committed: LastCommitted=%d", got)
	}
	// Redeliver the interrupted session in full.
	ingestAll(t, srv2, "veh00002", "ecuA", full)
	if got := srv2.LastCommitted("veh00002", "ecuA"); got != 1 {
		t.Fatalf("redelivered session not committed: LastCommitted=%d", got)
	}
	if sum := srv2.Summary(); sum.SessionsCompleted != 2 {
		t.Fatalf("completed = %d, want 2", sum.SessionsCompleted)
	}
	srv2.CloseDurable()
}

// TestStorageDegradedReadOnly: when the disk starts failing mid-run the
// service must turn read-only — typed backpressure to senders, summary
// still serveable, zero panics — and a restart on the surviving prefix
// must come back clean.
func TestStorageDegradedReadOnly(t *testing.T) {
	cfg := chaosPopulation(4)
	fs := durable.NewMemFS()
	var syncs atomic.Uint64
	diskDead := errors.New("disk failed")
	fs.Fault = func(op, name string) error {
		if op == "sync" && syncs.Add(1) > 10 {
			return diskDead
		}
		return nil
	}
	srv, _ := openDurable(t, 4, fs, DurableConfig{SnapshotEvery: 4})
	res, err := RunPopulation(context.Background(), srv, cfg)
	if err != nil {
		t.Fatalf("population must complete degraded, not fail: %v", err)
	}
	if !srv.StorageDegraded() {
		t.Fatal("store not degraded after fsync failures")
	}
	if res.Degraded == 0 {
		t.Fatal("no sessions fell back to local storage")
	}
	if srv.StorageRejects() == 0 {
		t.Fatal("degraded fast-fail gate never fired")
	}
	// The summary must still serve (read path unaffected).
	if _, err := srv.SummaryJSON(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseDurable(); !errors.Is(err, durable.ErrStorageDegraded) {
		t.Fatalf("close on degraded store: %v", err)
	}

	// Disk replaced: recovery of the surviving prefix, then a resumed
	// population must complete fully and commit everything.
	fs.Fault = nil
	srv2, _ := openDurable(t, 4, fs, DurableConfig{SnapshotEvery: 16})
	resume := cfg
	resume.Resume = true
	res2, err := RunPopulation(context.Background(), srv2, resume)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Degraded != 0 {
		t.Fatalf("%d sessions degraded after disk replacement", res2.Degraded)
	}
	want := referenceJSON(t, 4, cfg)
	if got := summaryJSON(t, srv2); !bytes.Equal(got, want) {
		t.Fatalf("post-replacement summary differs:\n%s\nvs\n%s", got, want)
	}
	if err := srv2.CloseDurable(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedIngestTyped: once degraded, IngestChunk fails fast with
// ErrStorageDegraded (wrapped, errors.Is-able) and marks backpressure.
func TestDegradedIngestTyped(t *testing.T) {
	fs := durable.NewMemFS()
	srv, _ := openDurable(t, 1, fs, DurableConfig{})
	fs.Fault = func(op, name string) error {
		if op == "sync" {
			return errors.New("no space left on device")
		}
		return nil
	}
	chunks := chunksFor(t, "ecuA", 1, failData(1))
	var last error
	for _, c := range chunks {
		if last = srv.IngestChunk("v1", "ecuA", c); last != nil {
			break
		}
	}
	if !errors.Is(last, durable.ErrStorageDegraded) {
		t.Fatalf("want ErrStorageDegraded, got %v", last)
	}
	// Every later chunk fails fast the same way.
	if err := srv.IngestChunk("v2", "ecuA", chunks[0]); !errors.Is(err, durable.ErrStorageDegraded) {
		t.Fatalf("fast-fail gate: %v", err)
	}
	if srv.StorageRejects() == 0 {
		t.Fatal("rejects not counted")
	}
	if sum := srv.Summary(); sum.SessionsCompleted != 0 {
		t.Fatalf("session committed on a dead disk: %+v", sum)
	}
}

// TestCommitEntryCodec round-trips both outcomes and rejects
// truncations at every length.
func TestCommitEntryCodec(t *testing.T) {
	blob := []byte("record-bytes")
	buf := appendCommitEntry(nil, entryStored, "veh00042", "ecuB", 7, 9, 2, blob)
	e, err := decodeCommitEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e.outcome != entryStored || e.vehicle != "veh00042" || e.ecu != "ecuB" ||
		e.session != 7 || e.chunks != 9 || e.chunkErrors != 2 || !bytes.Equal(e.blob, blob) {
		t.Fatalf("round trip: %+v", e)
	}
	corrupt := appendCommitEntry(nil, entryCorrupt, "v", "e", 1, 3, 1, nil)
	if e, err := decodeCommitEntry(corrupt); err != nil || e.outcome != entryCorrupt || len(e.blob) != 0 {
		t.Fatalf("corrupt entry: %+v err=%v", e, err)
	}
	for n := 0; n < len(buf); n++ {
		if _, err := decodeCommitEntry(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	if _, err := decodeCommitEntry(appendCommitEntry(nil, 9, "v", "e", 1, 1, 0, nil)); err == nil {
		t.Fatal("unknown outcome decoded")
	}
}

// TestCommittedCountersSnapshotRestore follows the five committed
// counters, kept per shard, through stored and corrupt sessions, a
// snapshot, a restore from it, more ingest and a second snapshot: at
// every step their sum over the shards and the snapshot's counters
// equal the running totals, and a clean close and reopen restores the
// summary byte for byte.
func TestCommittedCountersSnapshotRestore(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fs := durable.NewMemFS()
			cfg := DurableConfig{SnapshotEvery: 1 << 20} // snapshots only when asked
			srv, _ := openDurable(t, shards, fs, cfg)
			var want IngestStats
			next := uint32(1)
			// round ingests one session on each of 12 vehicles × 2 ECUs:
			// every third stream's record names the wrong ECU (corrupt),
			// and every fifth session first sees a chunk with a bad CRC.
			round := func() {
				t.Helper()
				for v := 0; v < 12; v++ {
					vehicle := fmt.Sprintf("veh%05d", v)
					for e, ecu := range []string{"ecuA", "ecuB"} {
						i := 2*v + e
						named := ecu
						if i%3 == 0 {
							named = "ecuZ"
						}
						chunks := chunksFor(t, named, next, failData(i%4))
						if i%5 == 0 {
							bad := chunks[0]
							bad.CRC ^= 1
							if err := srv.IngestChunk(vehicle, ecu, bad); !errors.Is(err, gateway.ErrChunkCRC) {
								t.Fatalf("bad-CRC chunk: %v", err)
							}
							want.Chunks++
							want.ChunkErrors++
						}
						for k, c := range chunks {
							err := srv.IngestChunk(vehicle, ecu, c)
							if k == len(chunks)-1 && named != ecu {
								if !errors.Is(err, ErrECUMismatch) {
									t.Fatalf("mismatched record: %v", err)
								}
							} else if err != nil {
								t.Fatal(err)
							}
						}
						want.Chunks += uint64(len(chunks))
						want.SessionsOpened++
						if named != ecu {
							want.CorruptRecords++
						} else {
							want.SessionsCompleted++
						}
					}
				}
				next++
			}
			check := func(srv *Server, step string) {
				t.Helper()
				var got IngestStats
				for _, sh := range srv.shards {
					sh.mu.Lock()
					got.Chunks += sh.committed.Chunks
					got.ChunkErrors += sh.committed.ChunkErrors
					got.SessionsOpened += sh.committed.SessionsOpened
					got.SessionsCompleted += sh.committed.SessionsCompleted
					got.CorruptRecords += sh.committed.CorruptRecords
					sh.mu.Unlock()
				}
				if got != want {
					t.Fatalf("%s: committed counters %+v, running totals %+v", step, got, want)
				}
				data, _, err := srv.captureState()
				if err != nil {
					t.Fatal(err)
				}
				var st snapState
				if err := json.Unmarshal(data, &st); err != nil {
					t.Fatal(err)
				}
				if st.Counters != [5]uint64{want.Chunks, want.ChunkErrors, want.SessionsOpened, want.SessionsCompleted, want.CorruptRecords} {
					t.Fatalf("%s: snapshot counters %v, running totals %+v", step, st.Counters, want)
				}
			}

			round()
			round()
			check(srv, "after ingest")
			if err := srv.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			before := summaryJSON(t, srv)
			srv.KillDurable()

			srv, rec := openDurable(t, shards, fs, cfg)
			if rec.SnapshotLSN == 0 || rec.Entries != 0 {
				t.Fatalf("restore: %+v, want the snapshot alone", rec)
			}
			check(srv, "after restore")
			if got := summaryJSON(t, srv); !bytes.Equal(got, before) {
				t.Fatalf("restored summary differs:\n%s\nvs\n%s", got, before)
			}
			round()
			check(srv, "after restore and more ingest")
			if err := srv.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			check(srv, "after the second snapshot")
			before = summaryJSON(t, srv)
			if err := srv.CloseDurable(); err != nil {
				t.Fatal(err)
			}

			srv, rec = openDurable(t, shards, fs, cfg)
			if rec.SnapshotLSN == 0 || rec.Entries != 0 {
				t.Fatalf("reopen after close: %+v, want the close snapshot alone", rec)
			}
			check(srv, "after close and reopen")
			if got := summaryJSON(t, srv); !bytes.Equal(got, before) {
				t.Fatalf("summary after close and reopen differs:\n%s\nvs\n%s", got, before)
			}
			if err := srv.CloseDurable(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// literalSnapshot pins the snapshot format: two vehicles on a
// two-shard server, one stream with a corrupt session, one whose
// session first saw a bad-CRC chunk, and one with two stored sessions.
const literalSnapshot = `{"counters":[9,1,4,3,1],"vehicles":{"veh00001":{"ecuA":{"s":1,"ls":1,"lc":1,"fs":1,"f":true,"le":2,"lw":64},"ecuB":{"s":0,"ls":0,"lc":1,"fs":0}},"veh00002":{"ecuA":{"s":2,"ls":2,"lc":2,"fs":1,"f":true,"le":1,"lw":64}}},"records":["AQAAAA0AdmVoMDAwMDIvZWN1QUAAAAA=","AgAAAA0AdmVoMDAwMDIvZWN1QUAAAQAAAAAAAAAAAAAAAQAAAAAAAAA=","AQAAAA0AdmVoMDAwMDEvZWN1QUAAAgAAAAAAAAAAAAAAAQAAAAAAAAABAAEAAAAAAAAAAAAAAAAAAAA="]}`

// literalSummary is SummaryJSON of literalSnapshot restored.
const literalSummary = `{
  "vehicles": 2,
  "streams": 3,
  "chunks": 9,
  "chunk_errors": 1,
  "sessions_opened": 4,
  "sessions_completed": 3,
  "sessions_rejected": 0,
  "stale_sessions": 0,
  "corrupt_records": 1,
  "open_sessions": 0,
  "records_stored": 3,
  "failing_vehicles": 2,
  "failing_streams": 2,
  "failing_ecus": {
    "ecuA": 2
  }
}`

// TestRestoreLiteralSnapshot: a snapshot written by an earlier build
// restores to a known summary and is re-emitted byte for byte, so the
// on-disk format cannot move unnoticed.
func TestRestoreLiteralSnapshot(t *testing.T) {
	srv, _ := openDurable(t, 2, durable.NewMemFS(), DurableConfig{SnapshotEvery: 1 << 20})
	defer srv.KillDurable()
	if err := srv.restoreState([]byte(literalSnapshot)); err != nil {
		t.Fatal(err)
	}
	if got := summaryJSON(t, srv); string(got) != literalSummary {
		t.Fatalf("restored summary:\n%s\nwant\n%s", got, literalSummary)
	}
	data, _, err := srv.captureState()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != literalSnapshot {
		t.Fatalf("re-captured snapshot:\n%s\nwant\n%s", data, literalSnapshot)
	}
}

// FuzzRestoreState: the snapshot reader never panics, and whatever it
// accepts reaches a capture → restore → capture fixpoint in one round.
func FuzzRestoreState(f *testing.F) {
	f.Add([]byte(literalSnapshot))
	for _, n := range []int{0, 1, 12, 40, len(literalSnapshot) / 2, len(literalSnapshot) - 1} {
		f.Add([]byte(literalSnapshot[:n]))
	}
	f.Add([]byte(strings.Replace(literalSnapshot, "[9,1,4,3,1]", "[9,1,4,3,1,7]", 1)))
	f.Add([]byte(strings.Replace(literalSnapshot, "[9,1,4,3,1]", "[9,1]", 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, _ := openDurable(t, 2, durable.NewMemFS(), DurableConfig{SnapshotEvery: 1 << 20})
		defer srv.KillDurable()
		if srv.restoreState(data) != nil {
			return
		}
		first, _, err := srv.captureState()
		if err != nil {
			t.Fatalf("capture of an accepted snapshot: %v", err)
		}
		if err := srv.restoreState(first); err != nil {
			t.Fatalf("restore of a captured snapshot: %v\n%s", err, first)
		}
		second, _, err := srv.captureState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("no fixpoint:\n%s\nvs\n%s", first, second)
		}
	})
}
