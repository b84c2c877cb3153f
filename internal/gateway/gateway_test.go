package gateway

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stumps"
)

func sampleFail(n int) stumps.FailData {
	fd := stumps.FailData{Windows: 8}
	for i := 0; i < n; i++ {
		fd.Entries = append(fd.Entries, stumps.FailEntry{Window: i, Got: uint64(100 + i), Want: uint64(200 + i)})
	}
	return fd
}

func TestIngestAndQueries(t *testing.T) {
	var c Collector
	s1 := c.Ingest("ecu01", stumps.FailData{Windows: 8})
	s2 := c.Ingest("ecu01", sampleFail(2))
	s3 := c.Ingest("ecu02", stumps.FailData{Windows: 8})
	if s1 != 1 || s2 != 2 || s3 != 1 {
		t.Fatalf("session numbers: %d %d %d", s1, s2, s3)
	}
	if len(c.Records()) != 3 {
		t.Fatalf("records = %d", len(c.Records()))
	}
	if got := c.ByECU("ecu01"); len(got) != 2 {
		t.Fatalf("ByECU = %d", len(got))
	}
	failing := c.FailingECUs()
	if len(failing) != 1 || failing[0] != "ecu01" {
		t.Fatalf("failing = %v", failing)
	}
	if c.StorageBytes() <= 0 {
		t.Fatal("no storage accounted")
	}
	c.Clear()
	if len(c.Records()) != 0 || len(c.FailingECUs()) != 0 {
		t.Fatal("Clear incomplete")
	}
}

func TestCapacityEvictsOldest(t *testing.T) {
	c := Collector{Capacity: 2}
	c.Ingest("a", sampleFail(1))
	c.Ingest("b", sampleFail(1))
	c.Ingest("c", sampleFail(1))
	recs := c.Records()
	if len(recs) != 2 || recs[0].ECU != "b" || recs[1].ECU != "c" {
		t.Fatalf("records = %+v", recs)
	}
}

// TestCapacityBackingArrayBounded pins the eviction fix: sustained
// ingest through a bounded collector must keep the live backing array
// at O(Capacity) slots. The old re-slicing eviction
// (records[len-Capacity:]) kept appending into an ever-growing array
// and pinned all of it.
func TestCapacityBackingArrayBounded(t *testing.T) {
	c := Collector{Capacity: 16}
	for i := 0; i < 10_000; i++ {
		c.Ingest(fmt.Sprintf("ecu%02d", i%37), sampleFail(4))
	}
	if got := cap(c.records); got > 16 {
		t.Fatalf("backing array grew to %d slots, want ≤ Capacity (16)", got)
	}
	recs := c.Records()
	if len(recs) != 16 {
		t.Fatalf("records = %d, want 16", len(recs))
	}
	// Newest 16 in ingestion order: the last ingested ECU closes the list.
	if want := fmt.Sprintf("ecu%02d", 9_999%37); recs[15].ECU != want {
		t.Fatalf("newest record %q, want %q", recs[15].ECU, want)
	}
	for i := 1; i < len(recs); i++ {
		if prev, cur := recs[i-1], recs[i]; prev.ECU == cur.ECU && prev.Session >= cur.Session {
			t.Fatalf("ingestion order lost at %d: %+v then %+v", i, prev, cur)
		}
	}
	// Queries and export still see the ring in order after wrapping.
	blob, err := c.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 16 || back[0].ECU != recs[0].ECU || back[15].ECU != recs[15].ECU {
		t.Fatalf("export/import of wrapped ring differs: %+v", back)
	}
}

// TestCapacityLoweredBetweenIngests: shrinking Capacity on a live
// collector must drop the oldest records and release the oversized
// backing array on the next ingest.
func TestCapacityLoweredBetweenIngests(t *testing.T) {
	c := Collector{Capacity: 8}
	for i := 0; i < 8; i++ {
		c.Ingest("a", sampleFail(1))
	}
	c.Capacity = 3
	c.Ingest("b", sampleFail(1))
	recs := c.Records()
	if len(recs) != 3 || cap(c.records) > 3 {
		t.Fatalf("len=%d cap=%d after lowering Capacity, want 3/≤3", len(recs), cap(c.records))
	}
	if recs[2].ECU != "b" || recs[0].ECU != "a" {
		t.Fatalf("wrong survivors: %+v", recs)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := Record{ECU: "ecu07", Session: 42, Fail: sampleFail(3)}
	b, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ECU != r.ECU || got.Session != r.Session || got.Fail.Windows != r.Fail.Windows {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Fail.Entries) != 3 {
		t.Fatalf("entries = %d", len(got.Fail.Entries))
	}
	for i := range r.Fail.Entries {
		if got.Fail.Entries[i] != r.Fail.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, got.Fail.Entries[i], r.Fail.Entries[i])
		}
	}
}

// TestMarshalRoundTripProperty fuzzes the wire format.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Record{
			ECU:     string(rune('a'+rng.Intn(26))) + "unit",
			Session: rng.Uint32(),
			Fail:    stumps.FailData{Windows: rng.Intn(100)},
		}
		for i := 0; i < rng.Intn(6); i++ {
			r.Fail.Entries = append(r.Fail.Entries, stumps.FailEntry{
				Window: rng.Intn(100), Got: rng.Uint64(), Want: rng.Uint64(),
			})
		}
		b, err := Marshal(r)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil || got.ECU != r.ECU || got.Session != r.Session {
			return false
		}
		if len(got.Fail.Entries) != len(r.Fail.Entries) {
			return false
		}
		for i := range r.Fail.Entries {
			if got.Fail.Entries[i] != r.Fail.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalTruncatedName pins the short-name fix: a blob whose
// declared ECU name runs past the end of the data is a truncated
// record, reported with ErrTruncated — regardless of how many bytes
// happen to follow the short name.
func TestUnmarshalTruncatedName(t *testing.T) {
	good, err := Marshal(Record{ECU: "ecu-zero-seven", Session: 9, Fail: sampleFail(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-name: 4 B session + 2 B name length + part of the name.
	cut := good[:4+2+5]
	if _, err := Unmarshal(cut); !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-name cut: got %v, want ErrTruncated", err)
	}
	// The old parser's special trap: a short name with ≥ 4 bytes of data
	// left after it (name length says 14, only 5 name bytes plus the
	// windows+entries fields survive). buf.Read would have swallowed the
	// later fields into the name.
	short := append([]byte(nil), good[:4+2+5]...)
	short = append(short, 0x08, 0x00, 0x00, 0x00) // plausible windows+entries
	got, err := Unmarshal(short)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("short name with trailing fields: got (%+v, %v), want ErrTruncated", got, err)
	}
	// Every strict prefix of a valid blob is truncated.
	for _, k := range []int{0, 3, 4, 5, len(good) / 2, len(good) - 1} {
		if _, err := Unmarshal(good[:k]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrTruncated", k, err)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{1, 2},
		{1, 2, 3, 4, 5},
	}
	for i, b := range bad {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Trailing bytes rejected.
	good, err := Marshal(Record{ECU: "x", Session: 1, Fail: sampleFail(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(good, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestMarshalRejectsOversized(t *testing.T) {
	if _, err := Marshal(Record{ECU: "x", Fail: stumps.FailData{Windows: 1 << 17}}); err == nil {
		t.Fatal("oversized windows accepted")
	}
	fd := stumps.FailData{Windows: 4, Entries: []stumps.FailEntry{{Window: 1 << 17}}}
	if _, err := Marshal(Record{ECU: "x", Fail: fd}); err == nil {
		t.Fatal("oversized window index accepted")
	}
}

func TestExportImport(t *testing.T) {
	var c Collector
	c.Ingest("ecu01", sampleFail(2))
	c.Ingest("ecu02", stumps.FailData{Windows: 8})
	blob, err := c.Export()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Import(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ECU != "ecu01" || recs[1].ECU != "ecu02" {
		t.Fatalf("imported = %+v", recs)
	}
	if _, err := Import(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if _, err := Import([]byte{1, 0, 0}); err == nil {
		t.Fatal("short prefix accepted")
	}
}

// TestPerSessionFootprintMatchesPaper: a session's stored fail data
// stays in the paper's "a few bytes ... roughly 638 bytes" regime even
// when every window fails.
func TestPerSessionFootprintMatchesPaper(t *testing.T) {
	var c Collector
	// 64 windows all failing: 64 entries * 6 B + header ≈ 400 B.
	c.Ingest("ecu01", sampleFail(64))
	if n := c.StorageBytes(); n > 638 {
		t.Fatalf("session footprint %d B exceeds the paper's 638 B", n)
	}
}
