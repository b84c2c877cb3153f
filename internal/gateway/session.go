package gateway

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/can"
	"repro/internal/obs"
	"repro/internal/stumps"
)

// This file adds the reliable transfer session between an ECU's BIST
// data task b^D and the gateway's result task b^R. The plain Ingest
// path assumes a perfect bus; on a faulty one a single corrupted c^R
// chunk would tear the stored record. The session layer makes the
// transfer safe: sequence-numbered, CRC-checked chunks, bounded retry
// with exponential backoff, and a degraded-mode policy — when the CAN
// controller leaves error-active, the ECU keeps the fail data in local
// b^D storage and resumes the session from the first undelivered chunk
// once the bus recovers.

// Chunk is one sequence-numbered segment of a marshaled Record on the
// wire.
type Chunk struct {
	Session uint32 // sender's session number
	Seq     uint16 // position of this chunk, 0-based
	Total   uint16 // chunk count of the whole record
	Data    []byte
	CRC     uint32 // crc32-IEEE over Data
}

// Checksum computes the chunk's payload CRC.
func (c Chunk) Checksum() uint32 { return crc32.ChecksumIEEE(c.Data) }

// Valid reports whether the carried CRC matches the payload.
func (c Chunk) Valid() bool { return c.CRC == c.Checksum() }

// chunkHeaderBytes is the wire overhead per chunk: session, seq, total,
// CRC.
const chunkHeaderBytes = 4 + 2 + 2 + 4

// Typed reassembly errors, distinguishable with errors.Is.
var (
	// ErrChunkCRC marks a chunk whose payload does not match its CRC.
	ErrChunkCRC = errors.New("gateway: chunk CRC mismatch")
	// ErrChunkGap marks a chunk arriving ahead of the expected sequence
	// number — accepting it would tear the record.
	ErrChunkGap = errors.New("gateway: chunk sequence gap")
	// ErrChunkDuplicate marks a chunk already assembled.
	ErrChunkDuplicate = errors.New("gateway: duplicate chunk")
	// ErrZeroChunks marks a session announcing zero chunks: such an
	// assembler would be born Complete with an empty buffer and no
	// validation at all, so it is rejected outright.
	ErrZeroChunks = errors.New("gateway: session with zero chunks")
	// ErrRecordTooLarge marks a record whose chunk count overflows the
	// uint16 sequence space of the wire format.
	ErrRecordTooLarge = errors.New("gateway: record too large for uint16 chunk count")
)

// Assembler is the gateway-side reassembly buffer of one session. It
// only ever appends in sequence order, so a completed buffer can never
// contain a torn record.
type Assembler struct {
	Session uint32
	Total   uint16

	next uint16
	buf  []byte
}

// NewAssembler prepares reassembly of a session split into total
// chunks. A zero-chunk session is rejected with ErrZeroChunks.
func NewAssembler(session uint32, total uint16) (*Assembler, error) {
	if total == 0 {
		return nil, fmt.Errorf("%w: session %d", ErrZeroChunks, session)
	}
	return &Assembler{Session: session, Total: total}, nil
}

// Reset re-arms the assembler for a new session, retaining the
// reassembly buffer's capacity — the pool discipline of the fleet
// ingest path.
func (a *Assembler) Reset(session uint32, total uint16) error {
	if total == 0 {
		return fmt.Errorf("%w: session %d", ErrZeroChunks, session)
	}
	a.Session, a.Total, a.next = session, total, 0
	a.buf = a.buf[:0]
	return nil
}

// Accept validates and appends one chunk. Chunks must arrive in
// sequence order with intact CRCs; anything else is rejected with a
// typed error and leaves the buffer untouched.
func (a *Assembler) Accept(c Chunk) error {
	if a.Total == 0 {
		// A zero-value Assembler constructed around NewAssembler.
		return fmt.Errorf("%w: assembler not armed", ErrZeroChunks)
	}
	if c.Session != a.Session {
		return fmt.Errorf("gateway: chunk for session %d, assembling %d", c.Session, a.Session)
	}
	if !c.Valid() {
		return fmt.Errorf("%w: seq %d", ErrChunkCRC, c.Seq)
	}
	if c.Seq < a.next {
		return fmt.Errorf("%w: seq %d already assembled", ErrChunkDuplicate, c.Seq)
	}
	if c.Seq > a.next {
		return fmt.Errorf("%w: want seq %d, got %d", ErrChunkGap, a.next, c.Seq)
	}
	a.buf = append(a.buf, c.Data...)
	a.next++
	return nil
}

// Complete reports whether every chunk has arrived. A zero-chunk
// assembler is never complete — an empty buffer has validated nothing.
func (a *Assembler) Complete() bool { return a.Total > 0 && a.next == a.Total }

// Bytes returns the reassembled record; an error if chunks are missing.
func (a *Assembler) Bytes() ([]byte, error) {
	if !a.Complete() {
		return nil, fmt.Errorf("gateway: session %d incomplete: %d/%d chunks", a.Session, a.next, a.Total)
	}
	return a.buf, nil
}

// Channel abstracts the bus leg between ECU and gateway. Deliver
// attempts to transmit one chunk end to end (data frame out,
// acknowledgement back) and reports whether it was acknowledged plus
// the bus time the attempt consumed in milliseconds.
type Channel interface {
	Deliver(c Chunk) (ok bool, elapsedMS float64)
}

// StateReporter is optionally implemented by channels that track the
// sender controller's CAN error-confinement state. The session polls it
// to trigger the degraded-mode fallback.
type StateReporter interface {
	State() can.ControllerState
}

// ChunkSink is the receiving end of a chunk transfer: an *Assembler
// for a point-to-point session, or a fleet shard routing many vehicles'
// sessions into sharded assemblers.
type ChunkSink interface {
	Accept(c Chunk) error
}

// FaultyChannel carries chunks over a CAN segment under a can.ErrorModel:
// every attempt is corrupted with the chunk's wire-length error
// probability drawn from the model's seeded stream, errors cost an
// error frame and walk the ISO 11898 TEC, and one in eight corruptions
// slips through as a delivered-but-damaged chunk so the receiver-side
// CRC check earns its keep. A disabled model delivers losslessly.
type FaultyChannel struct {
	Bus   can.Bus
	Model can.ErrorModel
	Sink  ChunkSink

	stream *can.ErrorStream
	ctr    can.ErrorCounters
	// Errors counts corrupted attempts, Delivered accepted chunks.
	Errors    int
	Delivered int
}

// NewFaultyChannel wires a channel over bus into sink.
func NewFaultyChannel(bus can.Bus, m can.ErrorModel, sink ChunkSink) *FaultyChannel {
	return &FaultyChannel{Bus: bus, Model: m, Sink: sink, stream: can.NewErrorStream(m.Seed)}
}

// State exposes the sender controller's error-confinement state.
func (fc *FaultyChannel) State() can.ControllerState { return fc.ctr.State() }

// wireMS returns the bus time of one chunk as back-to-back 8-byte
// frames, and its total wire bit count.
func (fc *FaultyChannel) wire(c Chunk) (ms float64, bits int) {
	n := len(c.Data) + chunkHeaderBytes
	frames := (n + can.MaxPayload - 1) / can.MaxPayload
	if frames < 1 {
		frames = 1
	}
	perFrame := can.FrameBits(can.MaxPayload, fc.Bus.Format)
	bits = frames * perFrame
	return float64(bits) * fc.Bus.BitTimeMS(), bits
}

func (fc *FaultyChannel) Deliver(c Chunk) (bool, float64) {
	if fc.ctr.State() == can.BusOff {
		return false, 0
	}
	ms, bits := fc.wire(c)
	if !fc.Model.Enabled() {
		if err := fc.Sink.Accept(c); err != nil {
			return false, ms
		}
		fc.Delivered++
		return true, ms
	}
	if fc.stream.Float64() < fc.Model.FrameErrorProb(bits) {
		fc.Errors++
		fc.ctr.OnTxError()
		ms += float64(can.MaxErrorFrameBits) * fc.Bus.BitTimeMS()
		if fc.stream.Float64() < 0.125 {
			// Undetected-on-the-wire corruption: the chunk arrives with a
			// damaged payload and must be caught by the application CRC.
			bad := c
			bad.Data = append([]byte(nil), c.Data...)
			if len(bad.Data) > 0 {
				bad.Data[0] ^= 0xFF
			}
			fc.Sink.Accept(bad) // rejected with ErrChunkCRC
		}
		return false, ms
	}
	if err := fc.Sink.Accept(c); err != nil {
		return false, ms
	}
	fc.ctr.OnTxSuccess()
	fc.Delivered++
	return true, ms
}

// SessionConfig tunes the sender's chunking. Zero values select the
// defaults.
type SessionConfig struct {
	ChunkBytes int // payload bytes per chunk (default 64)
	// Obs, when non-nil, times each Run as a gateway_session span and
	// marks degraded-mode fallbacks. Purely observational: transfer time
	// stays simulated and deterministic.
	Obs *obs.Tracer
}

func (c SessionConfig) chunkBytes() int {
	if c.ChunkBytes <= 0 {
		return 64
	}
	return c.ChunkBytes
}

// The sender retransmits a chunk up to maxRetries times, waiting
// firstBackoffMS before the first retry and doubling the wait per retry
// up to maxBackoffMS.
const (
	maxRetries     = 8
	firstBackoffMS = 1.0
	maxBackoffMS   = 64.0
)

// TransferResult is the outcome of one Session.Run.
type TransferResult struct {
	// Delivered is true when every chunk was acknowledged.
	Delivered bool
	// LocalFallback is true when the session aborted into degraded mode:
	// the controller left error-active (or the retries ran out) and
	// the fail data stays in local b^D storage until resumed.
	LocalFallback bool
	ElapsedMS     float64
	ChunksSent    int
	Retries       int
	// ResumeSeq is the first undelivered chunk — where a later Run picks
	// up.
	ResumeSeq uint16
}

// Session is the sender side of one reliable record transfer. A Session
// whose Run aborted into degraded mode can Run again on a recovered
// channel; it resumes from the first undelivered chunk.
type Session struct {
	cfg    SessionConfig
	sid    uint32
	chunks []Chunk
	next   uint16
}

// NewSession chunks the marshaled record of one BIST session for
// reliable transfer.
func NewSession(ecu string, session uint32, fd stumps.FailData, cfg SessionConfig) (*Session, error) {
	blob, err := Marshal(Record{ECU: ecu, Session: session, Fail: fd})
	if err != nil {
		return nil, err
	}
	size := cfg.chunkBytes()
	total := (len(blob) + size - 1) / size
	if total < 1 {
		total = 1
	}
	if total > 0xFFFF {
		return nil, fmt.Errorf("%w: %d chunks of %d bytes", ErrRecordTooLarge, total, size)
	}
	s := &Session{cfg: cfg, sid: session}
	for i := 0; i < total; i++ {
		lo, hi := i*size, (i+1)*size
		if hi > len(blob) {
			hi = len(blob)
		}
		c := Chunk{Session: session, Seq: uint16(i), Total: uint16(total), Data: blob[lo:hi]}
		c.CRC = c.Checksum()
		s.chunks = append(s.chunks, c)
	}
	return s, nil
}

// NumChunks returns the chunk count of the session.
func (s *Session) NumChunks() uint16 { return uint16(len(s.chunks)) }

// SessionID returns the sender's session number.
func (s *Session) SessionID() uint32 { return s.sid }

// Done reports whether every chunk has been acknowledged.
func (s *Session) Done() bool { return int(s.next) == len(s.chunks) }

// Rewind resets the resume position to the first chunk. A Session
// normally resumes a degraded Run from the first undelivered chunk —
// correct while the receiver keeps its partial reassembly. After a
// receiver restart that state is gone (a recovering server only keeps
// durably committed sessions), so the sender must redeliver from the
// top: Rewind, then Run again. The chunks are immutable, so the retry
// is byte-identical to the first attempt.
func (s *Session) Rewind() { s.next = 0 }

// degraded reports whether the channel state demands the local-storage
// fallback.
func degraded(ch Channel) bool {
	sr, ok := ch.(StateReporter)
	return ok && sr.State() != can.ErrorActive
}

// Run drives the transfer over ch until completion, retry exhaustion,
// or a degraded bus. Time is simulated: elapsed milliseconds
// accumulate from the channel's per-attempt cost and the retry
// backoffs, so runs are deterministic.
func (s *Session) Run(ch Channel) TransferResult {
	sp := s.cfg.Obs.Start(obs.StageGatewaySession)
	res := s.run(ch)
	sp.End()
	if res.LocalFallback {
		s.cfg.Obs.Mark(obs.StageDegraded)
	}
	return res
}

func (s *Session) run(ch Channel) TransferResult {
	var res TransferResult
	for !s.Done() {
		if degraded(ch) {
			res.LocalFallback = true
			res.ResumeSeq = s.next
			return res
		}
		c := s.chunks[s.next]
		backoff := firstBackoffMS
		sent := false
		for attempt := 0; attempt <= maxRetries; attempt++ {
			if attempt > 0 {
				res.Retries++
				res.ElapsedMS += backoff
				if backoff < maxBackoffMS {
					backoff *= 2
				}
				if degraded(ch) {
					break
				}
			}
			ok, ms := ch.Deliver(c)
			res.ChunksSent++
			res.ElapsedMS += ms
			if ok {
				sent = true
				break
			}
		}
		if !sent {
			res.LocalFallback = true
			res.ResumeSeq = s.next
			return res
		}
		s.next++
	}
	res.Delivered = true
	res.ResumeSeq = s.next
	return res
}

// IngestReliable transfers one ECU's fail data to the collector over a
// faulty CAN segment using the full session machinery and stores the
// record only when it arrived completely. On a degraded bus the result
// reports the local fallback and nothing is stored — the ECU keeps the
// data and a later session (with the bumped counter) retries.
func (c *Collector) IngestReliable(ecu string, fd stumps.FailData, bus can.Bus, m can.ErrorModel, cfg SessionConfig) (TransferResult, error) {
	if c.counter == nil {
		c.counter = make(map[string]uint32)
	}
	c.counter[ecu]++
	sid := c.counter[ecu]
	sess, err := NewSession(ecu, sid, fd, cfg)
	if err != nil {
		return TransferResult{}, err
	}
	asm, err := NewAssembler(sid, sess.NumChunks())
	if err != nil {
		return TransferResult{}, err
	}
	res := sess.Run(NewFaultyChannel(bus, m, asm))
	if !res.Delivered {
		return res, nil
	}
	blob, err := asm.Bytes()
	if err != nil {
		return res, err
	}
	rec, err := Unmarshal(blob)
	if err != nil {
		return res, fmt.Errorf("gateway: reassembled record corrupt: %w", err)
	}
	c.push(rec)
	return res, nil
}
