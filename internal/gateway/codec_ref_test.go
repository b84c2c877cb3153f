package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stumps"
)

// refMarshal is the reflection-based encoder the wire format was first
// written with: one binary.Write per field into a bytes.Buffer. It is
// the byte-identity oracle of Marshal.
func refMarshal(r Record) ([]byte, error) {
	if len(r.ECU) > 0xFFFF {
		return nil, fmt.Errorf("gateway: ECU name too long")
	}
	if r.Fail.Windows > 0xFFFF || len(r.Fail.Entries) > 0xFFFF {
		return nil, fmt.Errorf("gateway: fail data too large to marshal")
	}
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, r.Session)
	binary.Write(&buf, binary.LittleEndian, uint16(len(r.ECU)))
	buf.WriteString(r.ECU)
	binary.Write(&buf, binary.LittleEndian, uint16(r.Fail.Windows))
	binary.Write(&buf, binary.LittleEndian, uint16(len(r.Fail.Entries)))
	for _, e := range r.Fail.Entries {
		if e.Window < 0 || e.Window > 0xFFFF {
			return nil, fmt.Errorf("gateway: window index %d out of range", e.Window)
		}
		binary.Write(&buf, binary.LittleEndian, uint16(e.Window))
		binary.Write(&buf, binary.LittleEndian, e.Got)
		binary.Write(&buf, binary.LittleEndian, e.Want)
	}
	return buf.Bytes(), nil
}

// refUnmarshal is the reflection-based decoder (binary.Read through a
// bytes.Reader) the wire format was first written with: the oracle of
// Unmarshal's verdicts, records and error classes.
func refUnmarshal(data []byte) (Record, error) {
	buf := bytes.NewReader(data)
	var r Record
	var ecuLen, windows, nEntries uint16
	if err := binary.Read(buf, binary.LittleEndian, &r.Session); err != nil {
		return Record{}, fmt.Errorf("%w: session: %v", ErrTruncated, err)
	}
	if err := binary.Read(buf, binary.LittleEndian, &ecuLen); err != nil {
		return Record{}, fmt.Errorf("%w: name length: %v", ErrTruncated, err)
	}
	name := make([]byte, ecuLen)
	if _, err := io.ReadFull(buf, name); err != nil {
		return Record{}, fmt.Errorf("%w: ECU name: %v", ErrTruncated, err)
	}
	r.ECU = string(name)
	if err := binary.Read(buf, binary.LittleEndian, &windows); err != nil {
		return Record{}, fmt.Errorf("%w: windows: %v", ErrTruncated, err)
	}
	if err := binary.Read(buf, binary.LittleEndian, &nEntries); err != nil {
		return Record{}, fmt.Errorf("%w: entry count: %v", ErrTruncated, err)
	}
	r.Fail.Windows = int(windows)
	for i := 0; i < int(nEntries); i++ {
		var w uint16
		var e stumps.FailEntry
		if err := binary.Read(buf, binary.LittleEndian, &w); err != nil {
			return Record{}, fmt.Errorf("%w: entry %d: %v", ErrTruncated, i, err)
		}
		if err := binary.Read(buf, binary.LittleEndian, &e.Got); err != nil {
			return Record{}, fmt.Errorf("%w: entry %d: %v", ErrTruncated, i, err)
		}
		if err := binary.Read(buf, binary.LittleEndian, &e.Want); err != nil {
			return Record{}, fmt.Errorf("%w: entry %d: %v", ErrTruncated, i, err)
		}
		e.Window = int(w)
		r.Fail.Entries = append(r.Fail.Entries, e)
	}
	if buf.Len() != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing bytes", ErrTrailingGarbage, buf.Len())
	}
	return r, nil
}

// errClass names the typed wire error err carries ("" for nil).
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrTrailingGarbage):
		return "trailing garbage"
	default:
		return "other"
	}
}

// seededRecord draws a record with 0–300 fail entries and a name of
// 0–255 bytes (any byte values).
func seededRecord(rng *rand.Rand) Record {
	name := make([]byte, rng.Intn(256))
	rng.Read(name)
	r := Record{ECU: string(name), Session: rng.Uint32(), Fail: stumps.FailData{Windows: rng.Intn(0x10000)}}
	for i, n := 0, rng.Intn(301); i < n; i++ {
		r.Fail.Entries = append(r.Fail.Entries, stumps.FailEntry{
			Window: rng.Intn(0x10000), Got: rng.Uint64(), Want: rng.Uint64(),
		})
	}
	return r
}

// TestMarshalMatchesReference pins Marshal and Export byte for byte to
// the binary.Write encoder over seeded records, and Unmarshal's
// decode of each to the binary.Read decoder's.
func TestMarshalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var c Collector
	var wantExport []byte
	for i := 0; i < 300; i++ {
		r := seededRecord(rng)
		got, err := Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMarshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d (%d entries, %d-byte name): Marshal differs from the reference encoder", i, len(r.Fail.Entries), len(r.ECU))
		}
		dec, err := Unmarshal(got)
		ref, rerr := refUnmarshal(got)
		if err != nil || rerr != nil || !reflect.DeepEqual(dec, ref) {
			t.Fatalf("record %d: Unmarshal (%v) and the reference decoder (%v) disagree", i, err, rerr)
		}
		c.Store(r)
		wantExport = binary.LittleEndian.AppendUint32(wantExport, uint32(len(want)))
		wantExport = append(wantExport, want...)
	}
	got, err := c.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantExport) {
		t.Fatal("Export differs from the reference encoder's length-prefixed records")
	}
	// Out-of-range window indices fail in both encoders.
	bad := Record{ECU: "x", Fail: stumps.FailData{Entries: []stumps.FailEntry{{Window: 1}, {Window: -1}}}}
	if _, err := Marshal(bad); err == nil {
		t.Fatal("negative window index accepted")
	}
	if _, err := refMarshal(bad); err == nil {
		t.Fatal("reference encoder accepted a negative window index")
	}
}

// hostileCount is a record header declaring nEntries = 0xFFFF (1.2 MB
// of entries) followed by far fewer bytes.
func hostileCount(body int) []byte {
	b := []byte{7, 0, 0, 0, 3, 0, 'e', 'c', 'u', 64, 0, 0xFF, 0xFF}
	return append(b, make([]byte, body)...)
}

// TestUnmarshalHostileCountAllocs pins that a declared entry count the
// data cannot hold is rejected before anything is allocated for it,
// the name included.
func TestUnmarshalHostileCountAllocs(t *testing.T) {
	for _, body := range []int{0, 17, 18 * 100} {
		data := hostileCount(body)
		var err error
		allocs := testing.AllocsPerRun(100, func() { _, err = Unmarshal(data) })
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("body %d: got %v, want ErrTruncated", body, err)
		}
		if allocs != 0 {
			t.Fatalf("body %d: rejecting a hostile entry count allocates %.0f times, want 0", body, allocs)
		}
	}
}
