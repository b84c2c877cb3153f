package gateway

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/can"
)

var sessionBus = can.Bus{Name: "bus1", BitRate: 500_000, Format: can.Standard}

// mustAssembler arms an assembler or fails the test.
func mustAssembler(t *testing.T, session uint32, total uint16) *Assembler {
	t.Helper()
	a, err := NewAssembler(session, total)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSessionLosslessDelivery(t *testing.T) {
	fd := sampleFail(5)
	sess, err := NewSession("ecu01", 7, fd, SessionConfig{ChunkBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	asm := mustAssembler(t, 7, sess.NumChunks())
	res := sess.Run(NewFaultyChannel(sessionBus, can.ErrorModel{}, asm))
	if !res.Delivered || res.LocalFallback || res.Retries != 0 {
		t.Fatalf("lossless transfer degraded: %+v", res)
	}
	blob, err := asm.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := Record{ECU: "ecu01", Session: 7, Fail: fd}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("reassembled %+v, want %+v", rec, want)
	}
}

func TestSessionRetriesThroughErrors(t *testing.T) {
	fd := sampleFail(8)
	sess, err := NewSession("ecu02", 1, fd, SessionConfig{ChunkBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	m := can.ErrorModel{BitErrorRate: 1e-3, Seed: 11}
	asm := mustAssembler(t, 1, sess.NumChunks())
	ch := NewFaultyChannel(sessionBus, m, asm)
	res := sess.Run(ch)
	if !res.Delivered {
		t.Fatalf("transfer at BER 1e-3 failed: %+v (channel errors %d)", res, ch.Errors)
	}
	if ch.Errors == 0 || res.Retries == 0 {
		t.Fatalf("expected retransmissions at BER 1e-3, got errors=%d retries=%d", ch.Errors, res.Retries)
	}
	blob, err := asm.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Unmarshal(blob)
	if err != nil {
		t.Fatalf("record torn despite ARQ: %v", err)
	}
	if !reflect.DeepEqual(rec.Fail, fd) {
		t.Fatal("fail data corrupted in transit")
	}
}

func TestSessionDeterministic(t *testing.T) {
	fd := sampleFail(8)
	m := can.ErrorModel{BitErrorRate: 1e-4, Seed: 5}
	run := func() TransferResult {
		sess, err := NewSession("ecu03", 2, fd, SessionConfig{ChunkBytes: 16})
		if err != nil {
			t.Fatal(err)
		}
		asm := mustAssembler(t, 2, sess.NumChunks())
		return sess.Run(NewFaultyChannel(sessionBus, m, asm))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// busOffChannel reports a degraded controller after n deliveries.
type busOffChannel struct {
	inner *FaultyChannel
	after int
	n     int
	state can.ControllerState
}

func (b *busOffChannel) Deliver(c Chunk) (bool, float64) {
	if b.n >= b.after {
		b.state = can.ErrorPassive
		return false, 0
	}
	b.n++
	return b.inner.Deliver(c)
}

func (b *busOffChannel) State() can.ControllerState { return b.state }

// The degraded-mode policy: when the controller leaves error-active the
// session falls back to local storage, and a later Run on a recovered
// channel resumes from the first undelivered chunk — no chunk is sent
// twice, no gap is torn into the record.
func TestSessionDegradedFallbackAndResume(t *testing.T) {
	fd := sampleFail(8)
	sess, err := NewSession("ecu04", 3, fd, SessionConfig{ChunkBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sess.NumChunks() < 3 {
		t.Fatalf("test needs ≥3 chunks, got %d", sess.NumChunks())
	}
	asm := mustAssembler(t, 3, sess.NumChunks())
	first := &busOffChannel{inner: NewFaultyChannel(sessionBus, can.ErrorModel{}, asm), after: 2}
	res := sess.Run(first)
	if res.Delivered || !res.LocalFallback {
		t.Fatalf("degraded bus not detected: %+v", res)
	}
	if res.ResumeSeq != 2 {
		t.Fatalf("resume point %d, want 2", res.ResumeSeq)
	}
	if asm.Complete() {
		t.Fatal("assembler complete despite aborted session")
	}
	// Bus recovered: resume on a clean channel.
	res2 := sess.Run(NewFaultyChannel(sessionBus, can.ErrorModel{}, asm))
	if !res2.Delivered {
		t.Fatalf("resume failed: %+v", res2)
	}
	if got, want := int(res2.ResumeSeq)-2, int(sess.NumChunks())-2; res2.ChunksSent != want || got != want {
		t.Fatalf("resume re-sent chunks: sent %d, want %d", res2.ChunksSent, want)
	}
	blob, err := asm.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Unmarshal(blob)
	if err != nil {
		t.Fatalf("resumed record torn: %v", err)
	}
	if !reflect.DeepEqual(rec.Fail, fd) {
		t.Fatal("resumed fail data corrupted")
	}
}

// deafChannel never acknowledges a chunk and costs no bus time, so a
// session over it spends only its retry backoffs.
type deafChannel struct{}

func (deafChannel) Deliver(Chunk) (bool, float64) { return false, 0 }

// A chunk that is never acknowledged is sent once and retried 8 times,
// with backoffs of 1, 2, 4, …, 64 ms (capped at 64), before the session
// gives up into the local fallback at that chunk.
func TestSessionGivesUpAfterRetries(t *testing.T) {
	sess, err := NewSession("ecu05", 4, sampleFail(3), SessionConfig{ChunkBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Run(deafChannel{})
	want := TransferResult{LocalFallback: true, ElapsedMS: 1 + 2 + 4 + 8 + 16 + 32 + 64 + 64, ChunksSent: 9, Retries: 8}
	if res != want {
		t.Fatalf("got %+v, want %+v", res, want)
	}
}

func TestAssemblerTypedErrors(t *testing.T) {
	mk := func(seq uint16) Chunk {
		c := Chunk{Session: 1, Seq: seq, Total: 3, Data: []byte{byte(seq), 0xAB}}
		c.CRC = c.Checksum()
		return c
	}
	a := mustAssembler(t, 1, 3)
	bad := mk(0)
	bad.Data[1] ^= 0x01
	if err := a.Accept(bad); !errors.Is(err, ErrChunkCRC) {
		t.Fatalf("corrupt chunk: got %v, want ErrChunkCRC", err)
	}
	if err := a.Accept(mk(1)); !errors.Is(err, ErrChunkGap) {
		t.Fatalf("out-of-order chunk: got %v, want ErrChunkGap", err)
	}
	if err := a.Accept(mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Accept(mk(0)); !errors.Is(err, ErrChunkDuplicate) {
		t.Fatalf("replayed chunk: got %v, want ErrChunkDuplicate", err)
	}
	if _, err := a.Bytes(); err == nil {
		t.Fatal("incomplete assembler handed out bytes")
	}
}

// TestAssemblerZeroChunks pins the Total == 0 edge: such an assembler
// used to be born Complete() with an empty, unvalidated buffer.
func TestAssemblerZeroChunks(t *testing.T) {
	if _, err := NewAssembler(5, 0); !errors.Is(err, ErrZeroChunks) {
		t.Fatalf("NewAssembler(5, 0): got %v, want ErrZeroChunks", err)
	}
	a := mustAssembler(t, 5, 2)
	if err := a.Reset(6, 0); !errors.Is(err, ErrZeroChunks) {
		t.Fatalf("Reset(6, 0): got %v, want ErrZeroChunks", err)
	}
	// A zero-value Assembler (bypassing the constructor) must neither
	// accept chunks nor report completion.
	var zero Assembler
	if zero.Complete() {
		t.Fatal("zero-value assembler reports Complete")
	}
	c := Chunk{Session: 0, Seq: 0, Total: 0}
	c.CRC = c.Checksum()
	if err := zero.Accept(c); !errors.Is(err, ErrZeroChunks) {
		t.Fatalf("zero-value Accept: got %v, want ErrZeroChunks", err)
	}
	if _, err := zero.Bytes(); err == nil {
		t.Fatal("zero-value assembler handed out bytes")
	}
}

// TestAssemblerReset: a recycled assembler keeps its buffer capacity
// but none of the previous session's bytes.
func TestAssemblerReset(t *testing.T) {
	fd := sampleFail(5)
	sess, err := NewSession("ecu09", 1, fd, SessionConfig{ChunkBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	asm := mustAssembler(t, 1, sess.NumChunks())
	if res := sess.Run(NewFaultyChannel(sessionBus, can.ErrorModel{}, asm)); !res.Delivered {
		t.Fatalf("first session not delivered: %+v", res)
	}
	if err := asm.Reset(2, sess.NumChunks()); err != nil {
		t.Fatal(err)
	}
	if asm.Complete() {
		t.Fatal("reset assembler still complete")
	}
	sess2, err := NewSession("ecu09", 2, fd, SessionConfig{ChunkBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res := sess2.Run(NewFaultyChannel(sessionBus, can.ErrorModel{}, asm)); !res.Delivered {
		t.Fatalf("session into recycled assembler not delivered: %+v", res)
	}
	blob, err := asm.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Session != 2 || !reflect.DeepEqual(rec.Fail, fd) {
		t.Fatalf("recycled assembler produced %+v", rec)
	}
}

// TestSessionRecordTooLarge: a record that would need more than 0xFFFF
// chunks is rejected sender-side with the typed error instead of
// overflowing the uint16 sequence space.
func TestSessionRecordTooLarge(t *testing.T) {
	big := sampleFail(4000) // 4000 entries × 18 B ≫ 0xFFFF 1-byte chunks
	_, err := NewSession("ecu10", 1, big, SessionConfig{ChunkBytes: 1})
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized record: got %v, want ErrRecordTooLarge", err)
	}
	// The same record is fine at a sane chunk size.
	if _, err := NewSession("ecu10", 1, big, SessionConfig{ChunkBytes: 64}); err != nil {
		t.Fatalf("record rejected at 64-byte chunks: %v", err)
	}
}

func TestIngestReliable(t *testing.T) {
	var c Collector
	res, err := c.IngestReliable("ecu05", sampleFail(4), sessionBus, can.ErrorModel{BitErrorRate: 1e-5, Seed: 9}, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("reliable ingest failed: %+v", res)
	}
	recs := c.ByECU("ecu05")
	if len(recs) != 1 || recs[0].Session != 1 || !reflect.DeepEqual(recs[0].Fail, sampleFail(4)) {
		t.Fatalf("stored records wrong: %+v", recs)
	}
}

func TestImportTypedErrors(t *testing.T) {
	var c Collector
	c.Ingest("a", sampleFail(1))
	c.Ingest("b", sampleFail(2))
	blob, err := c.Export()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Import(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := Import(append(blob, 0xDE, 0xAD)); !errors.Is(err, ErrTrailingGarbage) {
		t.Fatalf("garbage-appended blob: got %v, want ErrTrailingGarbage", err)
	}
	one, err := Marshal(Record{ECU: "a", Session: 1, Fail: sampleFail(1)})
	if err != nil {
		t.Fatal(err)
	}
	dup := append([]byte(nil), blob...)
	dup = append(dup, byte(len(one)), 0, 0, 0)
	dup = append(dup, one...)
	if _, err := Import(dup); !errors.Is(err, ErrDuplicateSequence) {
		t.Fatalf("duplicate-session blob: got %v, want ErrDuplicateSequence", err)
	}
	rec, err := Marshal(Record{ECU: "x", Session: 1, Fail: sampleFail(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(rec, 0x00)); !errors.Is(err, ErrTrailingGarbage) {
		t.Fatalf("garbage-appended record: got %v, want ErrTrailingGarbage", err)
	}
}

// TestSessionRewindAfterReceiverRestart models the crash-recovery
// redelivery path: the receiver dies mid-session (its partial
// assembler is lost), so the sender rewinds and redelivers the whole
// session to a fresh assembler — byte-identical to the first attempt.
func TestSessionRewindAfterReceiverRestart(t *testing.T) {
	fd := sampleFail(8)
	sess, err := NewSession("ecu04", 3, fd, SessionConfig{ChunkBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	asm := mustAssembler(t, 3, sess.NumChunks())
	first := &busOffChannel{inner: NewFaultyChannel(sessionBus, can.ErrorModel{}, asm), after: 2}
	if res := sess.Run(first); res.Delivered || res.ResumeSeq != 2 {
		t.Fatalf("setup: %+v", res)
	}

	// Receiver restarts: partial reassembly is gone. Without Rewind the
	// session would resume at chunk 2 and the fresh assembler would
	// reject the gap forever.
	sess.Rewind()
	fresh := mustAssembler(t, 3, sess.NumChunks())
	res := sess.Run(NewFaultyChannel(sessionBus, can.ErrorModel{}, fresh))
	if !res.Delivered {
		t.Fatalf("redelivery failed: %+v", res)
	}
	if res.ChunksSent != int(sess.NumChunks()) {
		t.Fatalf("redelivery sent %d chunks, want all %d", res.ChunksSent, sess.NumChunks())
	}
	blob, err := fresh.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Unmarshal(blob)
	if err != nil || !reflect.DeepEqual(rec.Fail, fd) {
		t.Fatalf("redelivered record differs: %v", err)
	}
}
