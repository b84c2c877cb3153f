// Package gateway implements the central collection point of the
// paper's diagnosis architecture: the mandatory task b^R that stores
// the fail data of every ECU's BIST session. Contrary to functional
// DTCs, which are scattered across ECUs, all structural results live
// here — a few bytes per session — so system-level countermeasures and
// workshop read-out have a single source of truth (Section III).
package gateway

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/stumps"
)

// Typed wire-format errors, distinguishable with errors.Is. A parser
// that cannot tell "garbage appended" from "field truncated" cannot be
// trusted as the single source of diagnostic truth.
var (
	// ErrTrailingGarbage marks extra bytes after a structurally complete
	// record, or a dangling partial length prefix in an Export blob.
	ErrTrailingGarbage = errors.New("gateway: trailing garbage")
	// ErrDuplicateSequence marks two records in one Export blob claiming
	// the same (ECU, session) pair — a replay or a torn write, never a
	// legal fail memory.
	ErrDuplicateSequence = errors.New("gateway: duplicate sequence number")
	// ErrTruncated marks a record blob that ends before a declared field —
	// as opposed to ErrTrailingGarbage, which marks bytes left over after
	// a complete one.
	ErrTruncated = errors.New("gateway: truncated record")
)

// Record is one stored BIST session result.
type Record struct {
	ECU     string
	Session uint32 // session counter of the reporting ECU
	Fail    stumps.FailData
}

// Collector is the gateway-side fail memory. The zero value is ready
// to use; Capacity bounds the stored records (oldest evicted first,
// 0 = unbounded).
//
// Bounded collectors store their records in a ring whose backing array
// never exceeds Capacity slots: eviction overwrites the oldest slot in
// place, so a long-running collector — a fleet shard ingesting for
// days — holds O(Capacity) memory, and the evicted records' fail-data
// payloads become garbage immediately instead of staying pinned by a
// re-sliced append buffer.
type Collector struct {
	Capacity int

	records []Record
	head    int // index of the oldest record once the ring has wrapped
	counter map[string]uint32
}

// push appends one record, evicting the oldest when Capacity is
// exceeded.
func (c *Collector) push(rec Record) {
	switch {
	case c.Capacity <= 0:
		c.records = append(c.records, rec)
	case len(c.records) < c.Capacity:
		// Still filling: head stays 0, the slice is in ingestion order.
		// Growth is doubled manually and clamped to Capacity — append's
		// size-class rounding would otherwise overshoot the bound.
		if cap(c.records) == len(c.records) {
			grown := 2 * cap(c.records)
			if grown == 0 {
				grown = 8
			}
			if grown > c.Capacity {
				grown = c.Capacity
			}
			fresh := make([]Record, len(c.records), grown)
			copy(fresh, c.records)
			c.records = fresh
		}
		c.records = append(c.records, rec)
	default:
		if len(c.records) > c.Capacity {
			// Capacity was lowered between ingests: move the newest
			// records into a right-sized buffer, releasing the oversized
			// backing array.
			all := c.Records()
			c.records = make([]Record, c.Capacity)
			copy(c.records, all[len(all)-c.Capacity:])
			c.head = 0
		}
		c.records[c.head] = rec
		c.head = (c.head + 1) % len(c.records)
	}
}

// forEach visits the stored records oldest first.
func (c *Collector) forEach(fn func(r *Record)) {
	n := len(c.records)
	for i := 0; i < n; i++ {
		fn(&c.records[(c.head+i)%n])
	}
}

// Len returns the number of stored records.
func (c *Collector) Len() int { return len(c.records) }

// Ingest stores the fail data of one completed session and returns the
// assigned session number.
func (c *Collector) Ingest(ecu string, fd stumps.FailData) uint32 {
	if c.counter == nil {
		c.counter = make(map[string]uint32)
	}
	c.counter[ecu]++
	rec := Record{ECU: ecu, Session: c.counter[ecu], Fail: fd}
	c.push(rec)
	return rec.Session
}

// Store stores an externally sequenced record verbatim, without
// touching the collector's own session counters — the fleet ingest
// path, where the reporting vehicle assigns the session numbers.
func (c *Collector) Store(rec Record) {
	c.push(rec)
}

// Records returns all stored records in ingestion order.
func (c *Collector) Records() []Record {
	out := make([]Record, 0, len(c.records))
	c.forEach(func(r *Record) { out = append(out, *r) })
	return out
}

// ByECU returns the stored records of one ECU.
func (c *Collector) ByECU(ecu string) []Record {
	var out []Record
	c.forEach(func(r *Record) {
		if r.ECU == ecu {
			out = append(out, *r)
		}
	})
	return out
}

// FailingECUs lists ECUs with at least one failing session, sorted —
// the workshop-repair answer.
func (c *Collector) FailingECUs() []string {
	set := make(map[string]bool)
	c.forEach(func(r *Record) {
		if !r.Fail.Pass() {
			set[r.ECU] = true
		}
	})
	out := make([]string, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Clear erases the fail memory (workshop "clear DTCs" analogue).
func (c *Collector) Clear() {
	c.records = nil
	c.head = 0
}

// StorageBytes returns the current memory footprint of the stored fail
// data at 32-bit signatures — the quantity the paper bounds at roughly
// 638 bytes per session.
func (c *Collector) StorageBytes() int {
	n := 0
	c.forEach(func(r *Record) {
		n += recordHeaderBytes + len(r.ECU) + r.Fail.SizeBytes(32)
	})
	return n
}

const recordHeaderBytes = 4 /* session */ + 2 /* ecu len */ + 2 /* windows */ + 2 /* entries */

// wire format: all integers little-endian.
//
//	u32 session | u16 len(ecu) | ecu bytes | u16 windows | u16 nEntries
//	then per entry: u16 window | u64 got | u64 want

// Marshal serializes a record for off-board transfer (failure
// analysis export).
func Marshal(r Record) ([]byte, error) {
	return appendRecord(make([]byte, 0, wireSize(r)), r)
}

// wireSize is the encoded length of r.
func wireSize(r Record) int {
	return recordHeaderBytes + len(r.ECU) + entryBytes*len(r.Fail.Entries)
}

// entryBytes is the encoded length of one fail entry.
const entryBytes = 2 /* window */ + 8 /* got */ + 8 /* want */

// appendRecord appends r's wire encoding to buf.
func appendRecord(buf []byte, r Record) ([]byte, error) {
	if len(r.ECU) > 0xFFFF {
		return nil, fmt.Errorf("gateway: ECU name too long")
	}
	if r.Fail.Windows > 0xFFFF || len(r.Fail.Entries) > 0xFFFF {
		return nil, fmt.Errorf("gateway: fail data too large to marshal")
	}
	buf = binary.LittleEndian.AppendUint32(buf, r.Session)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.ECU)))
	buf = append(buf, r.ECU...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(r.Fail.Windows))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Fail.Entries)))
	for _, e := range r.Fail.Entries {
		if e.Window < 0 || e.Window > 0xFFFF {
			return nil, fmt.Errorf("gateway: window index %d out of range", e.Window)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(e.Window))
		buf = binary.LittleEndian.AppendUint64(buf, e.Got)
		buf = binary.LittleEndian.AppendUint64(buf, e.Want)
	}
	return buf, nil
}

// Unmarshal's rejections, built once: rejecting a blob allocates
// nothing.
var (
	errTruncHeader   = fmt.Errorf("%w: header", ErrTruncated)
	errTruncName     = fmt.Errorf("%w: ECU name", ErrTruncated)
	errTruncEntries  = fmt.Errorf("%w: fail entries", ErrTruncated)
	errTrailingBytes = fmt.Errorf("%w: bytes after the last fail entry", ErrTrailingGarbage)
)

// Unmarshal parses a record produced by Marshal. It reads the fields
// straight from data and checks the declared entry count against the
// remaining length before allocating the entry slice, so a hostile
// count allocates nothing.
func Unmarshal(data []byte) (Record, error) {
	if len(data) < 6 {
		return Record{}, errTruncHeader
	}
	nameEnd := 6 + int(binary.LittleEndian.Uint16(data[4:]))
	if len(data) < nameEnd {
		// A blob ending inside the declared name is truncated, full stop,
		// regardless of what (if anything) follows.
		return Record{}, errTruncName
	}
	if len(data) < nameEnd+4 {
		return Record{}, errTruncHeader
	}
	nEntries := int(binary.LittleEndian.Uint16(data[nameEnd+2:]))
	body := data[nameEnd+4:]
	switch want := entryBytes * nEntries; {
	case len(body) < want:
		return Record{}, errTruncEntries
	case len(body) > want:
		return Record{}, errTrailingBytes
	}
	r := Record{
		ECU:     string(data[6:nameEnd]),
		Session: binary.LittleEndian.Uint32(data),
		Fail:    stumps.FailData{Windows: int(binary.LittleEndian.Uint16(data[nameEnd:]))},
	}
	if nEntries > 0 {
		r.Fail.Entries = make([]stumps.FailEntry, nEntries)
		for i := range r.Fail.Entries {
			e := body[entryBytes*i:]
			r.Fail.Entries[i] = stumps.FailEntry{
				Window: int(binary.LittleEndian.Uint16(e)),
				Got:    binary.LittleEndian.Uint64(e[2:]),
				Want:   binary.LittleEndian.Uint64(e[10:]),
			}
		}
	}
	return r, nil
}

// Export serializes the whole fail memory, length-prefixing each
// record.
func (c *Collector) Export() ([]byte, error) {
	size := 0
	c.forEach(func(r *Record) { size += 4 + wireSize(*r) })
	buf := make([]byte, 0, size)
	var exportErr error
	c.forEach(func(r *Record) {
		if exportErr != nil {
			return
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(wireSize(*r)))
		buf, exportErr = appendRecord(buf, *r)
	})
	if exportErr != nil {
		return nil, exportErr
	}
	return buf, nil
}

// Import parses an Export blob into a fresh record list. It rejects
// dangling bytes after the last complete record (ErrTrailingGarbage)
// and two records with the same (ECU, session) pair
// (ErrDuplicateSequence).
func Import(data []byte) ([]Record, error) {
	var out []Record
	seen := make(map[string]bool)
	for off := 0; off < len(data); {
		if off+4 > len(data) {
			return nil, fmt.Errorf("%w: %d-byte partial length prefix at offset %d", ErrTrailingGarbage, len(data)-off, off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if off+n > len(data) {
			return nil, fmt.Errorf("gateway: truncated record at %d", off)
		}
		r, err := Unmarshal(data[off : off+n])
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s#%d", r.ECU, r.Session)
		if seen[key] {
			return nil, fmt.Errorf("%w: ECU %q session %d", ErrDuplicateSequence, r.ECU, r.Session)
		}
		seen[key] = true
		out = append(out, r)
		off += n
	}
	return out, nil
}
