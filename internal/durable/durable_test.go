package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// logOwner is the minimal state machine the tests persist: an ordered
// list of committed strings, mirroring how the fleet server folds
// committed sessions. Commit (after a successful Append) and Apply
// (replay) must land in the same state.
type logOwner struct {
	mu      sync.Mutex
	entries []string
	lastLSN uint64
}

func (o *logOwner) commit(lsn uint64, entry string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.entries = append(o.entries, entry)
	if lsn > o.lastLSN {
		o.lastLSN = lsn
	}
}

func (o *logOwner) state() ([]byte, uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return []byte(strings.Join(o.entries, "\n")), o.lastLSN, nil
}

func (o *logOwner) restore(data []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.entries = nil
	o.lastLSN = 0
	if len(data) > 0 {
		o.entries = strings.Split(string(data), "\n")
	}
	return nil
}

func (o *logOwner) apply(lsn uint64, entry []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.entries = append(o.entries, string(entry))
	o.lastLSN = lsn
	return nil
}

func (o *logOwner) snapshot() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.entries...)
}

func openOwner(t *testing.T, fs FS, dir string, opts Options) (*Store, *logOwner, Recovery) {
	t.Helper()
	o := &logOwner{}
	opts.FS = fs
	opts.State = o.state
	opts.Restore = o.restore
	opts.Apply = o.apply
	st, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st.Start()
	return st, o, rec
}

func wantEntries(t *testing.T, o *logOwner, want []string) {
	t.Helper()
	got := o.snapshot()
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func appendN(t *testing.T, st *Store, o *logOwner, from, n int) []string {
	t.Helper()
	var all []string
	for i := from; i < from+n; i++ {
		e := fmt.Sprintf("entry-%04d", i)
		lsn, err := st.Append([]byte(e))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		o.commit(lsn, e)
		all = append(all, e)
	}
	return all
}

func TestRoundTrip(t *testing.T) {
	fs := NewMemFS()
	st, o, rec := openOwner(t, fs, "d", Options{})
	if rec.LastLSN != 0 || rec.Entries != 0 {
		t.Fatalf("fresh open recovered %+v", rec)
	}
	want := appendN(t, st, o, 0, 25)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, o2, rec2 := openOwner(t, fs, "d", Options{})
	defer st2.Close()
	if rec2.LastLSN != 25 {
		t.Fatalf("LastLSN = %d, want 25", rec2.LastLSN)
	}
	// Close wrote a snapshot, so replay should have been cheap.
	if rec2.SnapshotLSN != 25 || rec2.Entries != 0 {
		t.Fatalf("recovery = %+v, want snapshot at 25 with no replay", rec2)
	}
	wantEntries(t, o2, want)
}

func TestWALOnlyRecovery(t *testing.T) {
	fs := NewMemFS()
	st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
	want := appendN(t, st, o, 0, 40)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
	defer st2.Close()
	if rec.SnapshotLSN != 0 || rec.Entries != 40 {
		t.Fatalf("recovery = %+v, want 40 replayed from LSN 0", rec)
	}
	wantEntries(t, o2, want)
}

func TestSnapshotPlusTail(t *testing.T) {
	fs := NewMemFS()
	st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
	want := appendN(t, st, o, 0, 10)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendN(t, st, o, 10, 15)
	want = append(want, o.snapshot()[10:]...)
	// No Close (no final snapshot): simulate a plain kill after the
	// last append's fsync. Recovery = snapshot at 10 + WAL tail.
	st.Kill()
	fs.Crash(1)

	st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
	defer st2.Close()
	if rec.SnapshotLSN != 10 {
		t.Fatalf("SnapshotLSN = %d, want 10 (recovery %+v)", rec.SnapshotLSN, rec)
	}
	if rec.LastLSN != 25 {
		t.Fatalf("LastLSN = %d, want 25 (every append was acked)", rec.LastLSN)
	}
	if rec.Entries != 15 {
		t.Fatalf("replayed %d entries above the snapshot, want 15", rec.Entries)
	}
	wantEntries(t, o2, want)
}

// segmentFiles returns the current segment names, oldest first.
func segmentFiles(t *testing.T, fs *MemFS, dir string) []string {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if _, ok := parseSeq(n, segPrefix, segSuffix); ok {
			segs = append(segs, n)
		}
	}
	return segs
}

func TestTornFinalFrame(t *testing.T) {
	for cut := 1; cut <= 12; cut++ {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			fs := NewMemFS()
			st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
			want := appendN(t, st, o, 0, 10)
			st.Kill()
			// Tear the final frame: chop `cut` bytes off the active
			// segment — a write that died partway to the platter.
			segs := segmentFiles(t, fs, "d")
			name := "d/" + segs[len(segs)-1]
			raw, err := fs.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fs.WriteFile(name, raw[:len(raw)-cut])

			st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
			defer st2.Close()
			if rec.TruncatedBytes == 0 {
				t.Fatalf("recovery = %+v, want a truncation", rec)
			}
			if rec.LastLSN != 9 || rec.Entries != 9 {
				t.Fatalf("recovery = %+v, want the 9 whole frames", rec)
			}
			wantEntries(t, o2, want[:9])

			// The repaired log accepts appends and survives another cycle.
			lsn, err := st2.Append([]byte("after-tear"))
			if err != nil {
				t.Fatalf("Append after repair: %v", err)
			}
			o2.commit(lsn, "after-tear")
			if lsn != 10 {
				t.Fatalf("append after repair got LSN %d, want 10", lsn)
			}
		})
	}
}

// FuzzWALRecover appends arbitrary bytes to the active segment of a
// killed store and reopens it. Recovery must not panic; the entries
// written before the kill come back first, in order; any extra entry
// recovered from the tail is a whole frame, with a matching CRC and the
// next dense LSN, found at that point of the tail; and the repaired log
// accepts one more append that survives a reopen. The seeds are
// TestTornFinalFrame's torn tails: the final frame cut short by 1..12
// bytes.
func FuzzWALRecover(f *testing.F) {
	const n = 9
	frame := appendFrame(nil, n+1, []byte(fmt.Sprintf("entry-%04d", n)))
	for cut := 1; cut <= 12; cut++ {
		f.Add(frame[:len(frame)-cut])
	}
	f.Add(frame)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tail []byte) {
		fs := NewMemFS()
		st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
		want := appendN(t, st, o, 0, n)
		st.Kill()
		segs := segmentFiles(t, fs, "d")
		name := "d/" + segs[len(segs)-1]
		raw, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fs.WriteFile(name, append(raw, tail...))

		st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
		got := o2.snapshot()
		if len(got) < n {
			t.Fatalf("recovered %d entries, want at least the %d written", len(got), n)
		}
		if !slices.Equal(got[:n], want) {
			t.Fatalf("recovered prefix %q, want the written entries %q", got[:n], want)
		}
		rest := tail
		for i, e := range got[n:] {
			lsn := uint64(n + 1 + i)
			fr := appendFrame(nil, lsn, []byte(e))
			if !bytes.HasPrefix(rest, fr) {
				t.Fatalf("recovered entry LSN %d (%q) is not a valid frame of the tail", lsn, e)
			}
			rest = rest[len(fr):]
		}
		if rec.LastLSN != uint64(len(got)) {
			t.Fatalf("LastLSN = %d for %d recovered entries", rec.LastLSN, len(got))
		}

		lsn, err := st2.Append([]byte("after-recover"))
		if err != nil {
			t.Fatalf("Append after repair: %v", err)
		}
		if lsn != uint64(len(got))+1 {
			t.Fatalf("append after repair got LSN %d, want %d", lsn, len(got)+1)
		}
		o2.commit(lsn, "after-recover")
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		st3, o3, _ := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
		defer st3.Close()
		wantEntries(t, o3, o2.snapshot())
	})
}

func TestMidLogCorruption(t *testing.T) {
	fs := NewMemFS()
	st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
	want := appendN(t, st, o, 0, 20)
	st.Close()

	// Flip one byte inside an early frame's payload: everything from
	// that frame on is untrusted and must be discarded.
	segs := segmentFiles(t, fs, "d")
	name := "d/" + segs[0]
	raw, _ := fs.ReadFile(name)
	off := len(walMagic) + 8 + frameHeader + 10 // inside frame 1's payload
	raw2 := append([]byte(nil), raw...)
	raw2[off] ^= 0xFF
	fs.WriteFile(name, raw2)

	st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
	defer st2.Close()
	if !strings.HasPrefix(want[0], "entry-") {
		t.Fatal("test invariant")
	}
	if rec.LastLSN != 0 || rec.Entries != 0 {
		t.Fatalf("recovery = %+v, want nothing recovered past a first-frame tear", rec)
	}
	wantEntries(t, o2, nil)
	if rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v, want truncated bytes", rec)
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	fs := NewMemFS()
	st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
	want := appendN(t, st, o, 0, 10)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendN(t, st, o, 10, 8)
	want = append(want[:10:10], o.snapshot()[10:]...)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	st.Kill()
	// Two snapshots should be retained now; corrupt the newest.
	names, _ := fs.ReadDir("d")
	var snaps []string
	for _, n := range names {
		if _, ok := parseSeq(n, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		}
	}
	if len(snaps) < 2 {
		t.Fatalf("want ≥2 retained snapshots, got %v", snaps)
	}
	newest := "d/" + snaps[len(snaps)-1]
	raw, _ := fs.ReadFile(newest)
	raw[len(raw)-1] ^= 0xFF
	fs.WriteFile(newest, raw)

	st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
	defer st2.Close()
	if rec.SkippedSnapshots != 1 {
		t.Fatalf("SkippedSnapshots = %d, want 1 (recovery %+v)", rec.SkippedSnapshots, rec)
	}
	if rec.LastLSN != 18 {
		t.Fatalf("LastLSN = %d, want 18: the WAL tail must cover the corrupt snapshot", rec.LastLSN)
	}
	wantEntries(t, o2, want)
}

func TestFsyncErrorDegrades(t *testing.T) {
	fs := NewMemFS()
	st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
	appendN(t, st, o, 0, 3)

	fail := errors.New("simulated EIO")
	fs.Fault = func(op, name string) error {
		if op == "sync" && strings.Contains(name, segPrefix) {
			return fail
		}
		return nil
	}
	if _, err := st.Append([]byte("doomed")); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("Append under fsync failure = %v, want ErrStorageDegraded", err)
	}
	fs.Fault = nil
	// Sticky: the fault is gone but the store stays read-only.
	if _, err := st.Append([]byte("still-doomed")); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("Append after fault cleared = %v, want sticky ErrStorageDegraded", err)
	}
	if !st.Degraded() {
		t.Fatal("Degraded() = false after fsync failure")
	}
	if err := st.Close(); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("Close on degraded store = %v, want ErrStorageDegraded", err)
	}

	// Recovery keeps at least the 3 acked entries. The nacked frame's
	// bytes did reach the file (only its fsync failed), so recovery may
	// legitimately replay it too — durable-but-unacknowledged is fine,
	// the resume path then treats it as committed. What it must never
	// do is lose an acked entry or invent one.
	st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
	defer st2.Close()
	got := o2.snapshot()
	if len(got) < 3 || len(got) > 4 {
		t.Fatalf("recovered %v, want the 3 acked entries (± the nacked 4th)", got)
	}
	for i, want := range []string{"entry-0000", "entry-0001", "entry-0002"} {
		if got[i] != want {
			t.Fatalf("entry %d = %q, want %q", i, got[i], want)
		}
	}
	if len(got) == 4 && got[3] != "doomed" {
		t.Fatalf("recovered 4th entry %q, want the nacked frame", got[3])
	}
	if rec.LastLSN != uint64(len(got)) {
		t.Fatalf("LastLSN = %d with %d entries", rec.LastLSN, len(got))
	}
}

func TestENOSPCDegradesWithShortWrite(t *testing.T) {
	fs := NewMemFS()
	st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
	appendN(t, st, o, 0, 5)

	// The next flush dies mid-write with 7 bytes on disk — ENOSPC with
	// a torn tail.
	enospc := errors.New("no space left on device")
	fs.Fault = func(op, name string) error {
		if op == "write" && strings.Contains(name, segPrefix) {
			return &ShortWrite{N: 7, Err: enospc}
		}
		return nil
	}
	if _, err := st.Append([]byte("torn")); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("Append under ENOSPC = %v, want ErrStorageDegraded", err)
	}
	fs.Fault = nil
	st.Close()

	// Recovery truncates the torn tail and keeps every acked entry.
	st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: -1})
	defer st2.Close()
	if rec.LastLSN != 5 {
		t.Fatalf("LastLSN = %d, want 5 (recovery %+v)", rec.LastLSN, rec)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v, want the torn tail truncated", rec)
	}
	wantEntries(t, o2, appendWant(5))
}

func appendWant(n int) []string {
	var w []string
	for i := 0; i < n; i++ {
		w = append(w, fmt.Sprintf("entry-%04d", i))
	}
	return w
}

func TestSeededCrashPoints(t *testing.T) {
	// Crash at seeded points: MemFS.Crash reverts each file to its
	// synced prefix plus a seeded slice of the unsynced tail. Since
	// every Append fsyncs before acking, all acked entries must
	// survive every seed.
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fs := NewMemFS()
			st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: 7})
			n := 3 + int(seed*5)%23
			want := appendN(t, st, o, 0, n)
			st.Kill()
			fs.Crash(seed)

			st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: 7})
			defer st2.Close()
			if rec.LastLSN != uint64(n) {
				t.Fatalf("seed %d: LastLSN = %d, want %d (recovery %+v)", seed, rec.LastLSN, n, rec)
			}
			wantEntries(t, o2, want)
		})
	}
}

func TestSegmentPruning(t *testing.T) {
	fs := NewMemFS()
	st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: 4})
	want := appendN(t, st, o, 0, 60)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	names, _ := fs.ReadDir("d")
	var nSnaps, nSegs int
	for _, n := range names {
		if _, ok := parseSeq(n, snapPrefix, snapSuffix); ok {
			nSnaps++
		}
		if _, ok := parseSeq(n, segPrefix, segSuffix); ok {
			nSegs++
		}
	}
	if nSnaps > 2 {
		t.Fatalf("%d snapshots retained, want ≤2 (%v)", nSnaps, names)
	}
	// Every segment below the oldest retained snapshot's cover is gone:
	// with snapshots every ~4 commits over 60, old segments must have
	// been pruned well below the naive count.
	if nSegs > 4 {
		t.Fatalf("%d segments retained, want aggressive pruning (%v)", nSegs, names)
	}

	st2, o2, _ := openOwner(t, fs, "d", Options{SnapshotEvery: 4})
	defer st2.Close()
	wantEntries(t, o2, want)
}

func TestConcurrentAppends(t *testing.T) {
	fs := NewMemFS()
	st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: 32})
	const (
		workers = 8
		each    = 40
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e := fmt.Sprintf("w%d-%03d", w, i)
				lsn, err := st.Append([]byte(e))
				if err != nil {
					errs[w] = err
					return
				}
				o.commit(lsn, e)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := st.LastLSN(); got != workers*each {
		t.Fatalf("LastLSN = %d, want %d", got, workers*each)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: 32})
	defer st2.Close()
	if rec.LastLSN != workers*each {
		t.Fatalf("recovered LastLSN = %d, want %d", rec.LastLSN, workers*each)
	}
	// Commit order is racy across workers but replay must match the
	// multiset the owner committed (it folds in LSN order).
	got := o2.snapshot()
	committed := o.snapshot()
	if len(got) != len(committed) {
		t.Fatalf("recovered %d entries, committed %d", len(got), len(committed))
	}
	seen := map[string]int{}
	for _, e := range committed {
		seen[e]++
	}
	for _, e := range got {
		seen[e]--
		if seen[e] < 0 {
			t.Fatalf("recovered entry %q not committed (or double-counted)", e)
		}
	}
}

func TestOnCommitHook(t *testing.T) {
	fs := NewMemFS()
	o := &logOwner{}
	var hooked []uint64
	st, _, err := Open("d", Options{
		FS: fs, State: o.state, Restore: o.restore, Apply: o.apply,
		SnapshotEvery: -1,
		OnCommit:      func(lsn uint64) { hooked = append(hooked, lsn) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 4; i++ {
		if _, err := st.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if len(hooked) != 4 || hooked[3] != 4 {
		t.Fatalf("OnCommit saw %v, want [1 2 3 4]", hooked)
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir() + "/data"
	o := &logOwner{}
	st, _, err := Open(dir, Options{State: o.state, Restore: o.restore, Apply: o.apply, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, st, o, 0, 20)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	o2 := &logOwner{}
	st2, rec, err := Open(dir, Options{State: o2.state, Restore: o2.restore, Apply: o2.apply, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.LastLSN != 20 {
		t.Fatalf("LastLSN = %d, want 20", rec.LastLSN)
	}
	wantEntries(t, o2, want)

	// A hand-torn tail on the real filesystem heals the same way.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	var seg string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), segSuffix) {
			seg = dir + "/" + e.Name()
		}
	}
	if seg == "" {
		t.Fatal("no segment file found")
	}
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(raw, 0xDE, 0xAD), 0o644); err != nil {
		t.Fatal(err)
	}
	o3 := &logOwner{}
	st3, rec3, err := Open(dir, Options{State: o3.state, Restore: o3.restore, Apply: o3.apply, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if rec3.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v, want the garbage tail truncated", rec3)
	}
	wantEntries(t, o3, want)
}

func TestFrameCodec(t *testing.T) {
	buf := appendFrame(nil, 7, []byte("payload"))
	if len(buf) != frameHeader+8+7 {
		t.Fatalf("frame length %d", len(buf))
	}
	// Any single-byte flip must be rejected by the CRC.
	for i := frameHeader; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x01
		if bytes.Equal(mut, buf) {
			t.Fatal("mutation did nothing")
		}
	}
}

// atomicOps is the exact FS operation sequence of WriteFileAtomic.
var atomicOps = []string{"create d/f.tmp", "write d/f.tmp", "sync d/f.tmp", "rename d/f.tmp", "syncdir d"}

func TestWriteFileAtomic(t *testing.T) {
	fs := NewMemFS()
	var ops []string
	fs.Fault = func(op, name string) error { ops = append(ops, op+" "+name); return nil }
	if err := WriteFileAtomic(fs, "d/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ops) != fmt.Sprint(atomicOps) {
		t.Fatalf("ops = %q, want %q", ops, atomicOps)
	}

	// A fault at each op surfaces as the error and never leaves a tmp
	// file behind. Until the rename the target keeps its old bytes; a
	// failed directory fsync comes after the rename, so the new bytes
	// are in place but not known to be durable — hence the error.
	fail := errors.New("injected")
	for i, at := range atomicOps {
		fs.Fault = func(op, name string) error {
			if op+" "+name == at {
				return fail
			}
			return nil
		}
		if err := WriteFileAtomic(fs, "d/f", []byte("v2")); !errors.Is(err, fail) {
			t.Fatalf("fault at %q: err = %v, want the injected fault", at, err)
		}
		want := "v1"
		if i == len(atomicOps)-1 {
			want = "v2"
		}
		if got, _ := fs.ReadFile("d/f"); string(got) != want {
			t.Fatalf("fault at %q: target = %q, want %q", at, got, want)
		}
		if _, err := fs.ReadFile("d/f.tmp"); err == nil {
			t.Fatalf("fault at %q left d/f.tmp behind", at)
		}
		fs.Fault = nil
		fs.WriteFile("d/f", []byte("v1"))
	}
}

// A failed snapshot install is counted, leaves the store writable, and
// loses nothing: the WAL still recovers the pre-snapshot state.
func TestSnapshotInstallFault(t *testing.T) {
	for _, op := range []string{"rename", "syncdir"} {
		t.Run(op, func(t *testing.T) {
			fs := NewMemFS()
			st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
			want := appendN(t, st, o, 0, 12)
			armed := true
			fs.Fault = func(got, _ string) error {
				if armed && got == op {
					armed = false
					return errors.New("injected " + op)
				}
				return nil
			}
			if err := st.Snapshot(); err == nil || !strings.HasPrefix(err.Error(), "durable: ") {
				t.Fatalf("Snapshot under %s fault = %v, want a durable: error", op, err)
			}
			fs.Fault = nil
			if s := st.StatsSnapshot(); s.SnapshotFailures != 1 || s.Snapshots != 0 || s.Degraded {
				t.Fatalf("stats after failed snapshot = %+v", s)
			}
			want = append(want, appendN(t, st, o, 12, 3)...)
			st.Kill()

			st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
			defer st2.Close()
			if rec.LastLSN != 15 {
				t.Fatalf("recovery = %+v, want LastLSN 15", rec)
			}
			wantEntries(t, o2, want)
		})
	}
}

// TestTornSegmentBeforeContinuousSegment covers a tear in a segment that
// is not the newest: garbage after its last valid frame loses nothing
// when the next segment starts at the following LSN, so recovery cuts
// the garbage and replays on. A tear that loses a frame leaves a gap,
// and everything past it is dropped.
func TestTornSegmentBeforeContinuousSegment(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cutFrame bool // also cut the first segment's last frame short
		wantLast uint64
	}{
		{"garbage tail", false, 20},
		{"lost frame", true, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewMemFS()
			st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
			// Snapshots at LSN 2 and 10 leave segments based at 3 and 11;
			// the older snapshot keeps the first from being pruned.
			var want []string
			for _, n := range []int{2, 8} {
				want = append(want, appendN(t, st, o, len(want), n)...)
				if err := st.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			want = append(want, appendN(t, st, o, len(want), 10)...)
			st.Kill()
			fs.Remove("d/" + snapName(10)) // recover from snapshot 2 and the WAL
			segs := segmentFiles(t, fs, "d")
			if len(segs) != 2 || segs[0] != segName(3) || segs[1] != segName(11) {
				t.Fatalf("segments %v, want those based at 3 and 11", segs)
			}
			for i, n := range segs {
				raw, _ := fs.ReadFile("d/" + n)
				if i == 0 && tc.cutFrame {
					raw = raw[:len(raw)-3]
				}
				fs.WriteFile("d/"+n, append(raw, 0xde, 0xad, 0xbe, 0xef))
			}

			st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
			defer st2.Close()
			if rec.LastLSN != tc.wantLast {
				t.Fatalf("recovery %+v, want LastLSN %d", rec, tc.wantLast)
			}
			wantEntries(t, o2, want[:tc.wantLast])
		})
	}
}

// TestTornSegmentCoveredBySnapshot: a snapshot captured while appends
// were landing covers LSNs past the base of the segment its rotation
// opened, so the newest snapshot can reach into a later segment while
// an older one, kept for the older snapshot, still lies before it. A
// torn tail in that older segment leaves no gap — everything in it is
// covered — and must not drop the later segments.
func TestTornSegmentCoveredBySnapshot(t *testing.T) {
	fs := NewMemFS()
	st, o, _ := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
	want := appendN(t, st, o, 0, 2)
	if err := st.Snapshot(); err != nil { // snapshot 2, segment based at 3
		t.Fatal(err)
	}
	want = append(want, appendN(t, st, o, 2, 4)...)
	// Two appends the owner has not folded yet when the next snapshot
	// captures it: snapshot 6, but the rotation opens a segment at 9.
	for i := 6; i < 8; i++ {
		if _, err := st.Append([]byte(fmt.Sprintf("entry-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 8; i++ {
		e := fmt.Sprintf("entry-%04d", i)
		o.commit(uint64(i+1), e)
		want = append(want, e)
	}
	want = append(want, appendN(t, st, o, 8, 4)...)
	if err := st.Snapshot(); err != nil { // snapshot 12, segment based at 13
		t.Fatal(err)
	}
	want = append(want, appendN(t, st, o, 12, 3)...)
	st.Kill()
	segs := segmentFiles(t, fs, "d")
	if len(segs) != 3 || segs[0] != segName(3) || segs[1] != segName(9) || segs[2] != segName(13) {
		t.Fatalf("segments %v, want those based at 3, 9 and 13", segs)
	}
	raw, _ := fs.ReadFile("d/" + segs[0])
	fs.WriteFile("d/"+segs[0], append(raw, 0xde, 0xad, 0xbe, 0xef))

	st2, o2, rec := openOwner(t, fs, "d", Options{SnapshotEvery: 1 << 30})
	defer st2.Close()
	if rec.SnapshotLSN != 12 || rec.LastLSN != 15 {
		t.Fatalf("recovery %+v, want snapshot 12 and LastLSN 15", rec)
	}
	wantEntries(t, o2, want)
}
