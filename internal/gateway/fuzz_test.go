package gateway

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes through the wire-format parser:
// no panics, the verdict, record and error class must match the
// binary.Read reference decoder's (refUnmarshal), anything accepted
// must survive a Marshal round trip,
// appending garbage to an accepted blob must be rejected with the typed
// trailing-garbage error, and truncating one must be rejected as
// ErrTruncated — including cuts inside the ECU name, where a
// short-read-tolerant parser would silently misparse.
func FuzzUnmarshal(f *testing.F) {
	good, err := Marshal(Record{ECU: "ecu01", Session: 3, Fail: sampleFail(2)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// Short-name seeds: declared name length exceeds the remaining data.
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF, 'a', 'b', 'c'})
	f.Add(good[:4+2+3]) // cut inside "ecu01"
	shortName := append([]byte(nil), good[:4+2+3]...)
	f.Add(append(shortName, 8, 0, 0, 0)) // short name, ≥4 plausible trailing bytes
	// Hostile entry counts: nEntries = 0xFFFF over a short body.
	f.Add(hostileCount(0))
	f.Add(hostileCount(17))
	f.Add(hostileCount(18 * 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Unmarshal(data)
		ref, rerr := refUnmarshal(data)
		if errClass(err) != errClass(rerr) {
			t.Fatalf("Unmarshal says %v, the reference decoder %v", err, rerr)
		}
		if !reflect.DeepEqual(r, ref) {
			t.Fatalf("Unmarshal decodes %+v, the reference decoder %+v", r, ref)
		}
		if err != nil {
			return
		}
		b, err := Marshal(r)
		if err != nil {
			t.Fatalf("accepted record failed to marshal: %v", err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.ECU != r.ECU || back.Session != r.Session || len(back.Fail.Entries) != len(r.Fail.Entries) {
			t.Fatal("round trip changed the record")
		}
		if _, err := Unmarshal(append(b, 0xEE)); !errors.Is(err, ErrTrailingGarbage) {
			t.Fatalf("garbage-appended record accepted: %v", err)
		}
		// Any strict prefix is a truncation: the format has no optional
		// tail. Cut once mid-name (when there is a name) and once before
		// the final byte.
		if _, err := Unmarshal(b[:len(b)-1]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("one-byte truncation accepted: %v", err)
		}
		if len(r.ECU) > 0 {
			cut := 4 + 2 + len(r.ECU)/2
			if _, err := Unmarshal(b[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("mid-name truncation accepted: %v", err)
			}
		}
	})
}

// FuzzImport checks the length-prefixed container parser: no panics,
// accepted blobs must re-export to an importable blob, and a blob with
// a record repeated must be rejected as a duplicate sequence.
func FuzzImport(f *testing.F) {
	var c Collector
	c.Ingest("a", sampleFail(1))
	blob, err := c.Export()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Import(data)
		if err != nil {
			return
		}
		if len(recs) == 0 {
			return
		}
		// Re-exporting what Import accepted must round-trip.
		var c2 Collector
		c2.records = recs
		blob2, err := c2.Export()
		if err != nil {
			t.Fatalf("accepted records failed to export: %v", err)
		}
		if _, err := Import(blob2); err != nil {
			t.Fatalf("re-exported blob rejected: %v", err)
		}
		// Doubling the blob repeats every (ECU, session) pair.
		if _, err := Import(append(append([]byte(nil), data...), data...)); !errors.Is(err, ErrDuplicateSequence) {
			t.Fatalf("doubled blob accepted: %v", err)
		}
	})
}
