package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/can"
	"repro/internal/dtc"
	"repro/internal/gateway"
	"repro/internal/model"
	"repro/internal/stumps"
)

// captureSink records delivered chunks — a perfect channel's receiver.
type captureSink struct{ chunks []gateway.Chunk }

func (c *captureSink) Accept(ch gateway.Chunk) error {
	c.chunks = append(c.chunks, ch)
	return nil
}

var testBus = can.Bus{Name: "diag", BitRate: 500_000, Format: can.Standard}

// chunksFor splits one record into wire chunks via the real session
// machinery over a lossless channel.
func chunksFor(t *testing.T, ecu string, sid uint32, fd stumps.FailData) []gateway.Chunk {
	t.Helper()
	sess, err := gateway.NewSession(ecu, sid, fd, gateway.SessionConfig{ChunkBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureSink{}
	if res := sess.Run(gateway.NewFaultyChannel(testBus, can.ErrorModel{}, sink)); !res.Delivered {
		t.Fatalf("lossless transfer not delivered: %+v", res)
	}
	return sink.chunks
}

func failData(entries int) stumps.FailData {
	fd := stumps.FailData{Windows: 64}
	for i := 0; i < entries; i++ {
		fd.Entries = append(fd.Entries, stumps.FailEntry{Window: i, Got: uint64(i), Want: uint64(i) ^ 1})
	}
	return fd
}

func ingestAll(t *testing.T, srv *Server, vehicle, ecu string, chunks []gateway.Chunk) {
	t.Helper()
	for _, c := range chunks {
		if err := srv.IngestChunk(vehicle, ecu, c); err != nil {
			t.Fatalf("ingest %s/%s seq %d: %v", vehicle, ecu, c.Seq, err)
		}
	}
}

func TestIngestRoundTrip(t *testing.T) {
	srv := New(Config{Shards: 2})
	ingestAll(t, srv, "veh00001", "ecuA", chunksFor(t, "ecuA", 1, failData(3)))
	ingestAll(t, srv, "veh00001", "ecuB", chunksFor(t, "ecuB", 1, failData(0)))
	ingestAll(t, srv, "veh00002", "ecuA", chunksFor(t, "ecuA", 1, failData(0)))

	sum := srv.Summary()
	if sum.Vehicles != 2 || sum.Streams != 3 {
		t.Fatalf("vehicles/streams = %d/%d", sum.Vehicles, sum.Streams)
	}
	if sum.SessionsCompleted != 3 || sum.RecordsStored != 3 || sum.OpenSessions != 0 {
		t.Fatalf("completed/stored/open = %d/%d/%d", sum.SessionsCompleted, sum.RecordsStored, sum.OpenSessions)
	}
	if sum.FailingVehicles != 1 || sum.FailingStreams != 1 || sum.FailingECUs["ecuA"] != 1 {
		t.Fatalf("failing rollup: %+v", sum)
	}

	v, ok := srv.Vehicle("veh00001")
	if !ok || !v.Failing || len(v.ECUs) != 2 {
		t.Fatalf("vehicle status: %+v ok=%v", v, ok)
	}
	if v.ECUs[0].ECU != "ecuA" || !v.ECUs[0].Failing || v.ECUs[0].LastEntries != 3 {
		t.Fatalf("ecuA status: %+v", v.ECUs[0])
	}
	if _, ok := srv.Vehicle("veh99999"); ok {
		t.Fatal("unknown vehicle found")
	}

	failing := srv.Failing()
	if len(failing) != 1 || failing[0].Vehicle != "veh00001" || failing[0].ECU != "ecuA" {
		t.Fatalf("failing list: %+v", failing)
	}
}

func TestIngestProtocolErrors(t *testing.T) {
	srv := New(Config{Shards: 1})
	chunks := chunksFor(t, "ecuA", 1, failData(2))
	if len(chunks) < 2 {
		t.Fatalf("want multi-chunk session, got %d", len(chunks))
	}

	// Mid-session chunk with no open session.
	if err := srv.IngestChunk("v1", "ecuA", chunks[1]); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("orphan chunk: %v", err)
	}
	ingestAll(t, srv, "v1", "ecuA", chunks)

	// Replaying the completed session is stale.
	if err := srv.IngestChunk("v1", "ecuA", chunks[0]); !errors.Is(err, ErrStaleSession) {
		t.Fatalf("replay: %v", err)
	}

	// A record claiming a different ECU than its stream.
	if err := srv.IngestChunk("v1", "ecuB", chunks[0]); err != nil {
		t.Fatalf("open on ecuB: %v", err)
	}
	var last error
	for _, c := range chunks[1:] {
		last = srv.IngestChunk("v1", "ecuB", c)
	}
	if !errors.Is(last, ErrECUMismatch) {
		t.Fatalf("mismatched ECU: %v", last)
	}

	// Corrupted chunk bounces off the assembler with its typed error.
	if err := srv.IngestChunk("v2", "ecuA", chunks[0]); len(chunks[0].Data) > 0 && err != nil {
		t.Fatalf("open v2: %v", err)
	}
	bad := chunks[1]
	bad.Data = append([]byte(nil), bad.Data...)
	bad.Data[0] ^= 0xFF
	if err := srv.IngestChunk("v2", "ecuA", bad); !errors.Is(err, gateway.ErrChunkCRC) {
		t.Fatalf("corrupt chunk: %v", err)
	}
	if got := srv.Summary().ChunkErrors; got != 1 {
		t.Fatalf("chunk errors = %d", got)
	}
}

func TestBackpressureTypedErrors(t *testing.T) {
	srv := New(Config{Shards: 1, PerShardSessions: 1, PerShardVehicles: 2})
	a := chunksFor(t, "ecuA", 1, failData(2))

	// First stream occupies the only reassembly slot.
	if err := srv.IngestChunk("v1", "ecuA", a[0]); err != nil {
		t.Fatal(err)
	}
	if err := srv.IngestChunk("v2", "ecuA", a[0]); !errors.Is(err, ErrSessionsFull) {
		t.Fatalf("second open: %v", err)
	}
	// Completing the first frees the slot.
	for _, c := range a[1:] {
		if err := srv.IngestChunk("v1", "ecuA", c); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.IngestChunk("v2", "ecuA", a[0]); err != nil {
		t.Fatalf("open after drain: %v", err)
	}

	// Vehicle cap: v1, v2 tracked; v3 rejected.
	if err := srv.IngestChunk("v3", "ecuA", a[0]); !errors.Is(err, ErrVehiclesFull) {
		t.Fatalf("third vehicle: %v", err)
	}
	if got := srv.Summary().SessionsRejected; got != 2 {
		t.Fatalf("rejected = %d", got)
	}
}

// TestSessionSupersedesAbandoned: a fresh session (bumped counter, seq
// 0) on a stream with a half-assembled abandoned session must replace
// it rather than wedge the stream.
func TestSessionSupersedesAbandoned(t *testing.T) {
	srv := New(Config{Shards: 1})
	s1 := chunksFor(t, "ecuA", 1, failData(2))
	if err := srv.IngestChunk("v1", "ecuA", s1[0]); err != nil {
		t.Fatal(err)
	}
	// Sender aborts into degraded mode, later retries as session 2.
	s2 := chunksFor(t, "ecuA", 2, failData(1))
	ingestAll(t, srv, "v1", "ecuA", s2)
	sum := srv.Summary()
	if sum.SessionsCompleted != 1 || sum.OpenSessions != 0 {
		t.Fatalf("completed/open = %d/%d", sum.SessionsCompleted, sum.OpenSessions)
	}
	v, _ := srv.Vehicle("v1")
	if v.ECUs[0].LastSession != 2 {
		t.Fatalf("last session = %d, want 2", v.ECUs[0].LastSession)
	}
}

// TestRecordsBounded: sustained ingest holds the resident record count
// at the shard rings' capacity while sessions keep completing.
func TestRecordsBounded(t *testing.T) {
	srv := New(Config{Shards: 2, PerShardRecords: 8})
	res, err := RunPopulation(context.Background(), srv, PopulationConfig{
		Vehicles: 50, ECUs: []string{"ecuA"}, SessionsPerECU: 5,
		FailProb: 0.2, Seed: 1, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := srv.Summary()
	if res.Delivered != 250 || sum.SessionsCompleted != 250 {
		t.Fatalf("delivered/completed = %d/%d", res.Delivered, sum.SessionsCompleted)
	}
	if sum.RecordsStored > 2*8 {
		t.Fatalf("resident records %d exceed ring capacity %d", sum.RecordsStored, 2*8)
	}
}

// TestConcurrentIngest exercises the sharded path under the race
// detector: many workers, few shards, a lossy bus, concurrent summary
// reads.
func TestConcurrentIngest(t *testing.T) {
	srv := New(Config{Shards: 4})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			srv.Summary()
			srv.Failing()
			srv.Vehicle("veh00003")
		}
	}()
	res, err := RunPopulation(context.Background(), srv, PopulationConfig{
		Vehicles: 64, ECUs: []string{"ecuA", "ecuB"}, SessionsPerECU: 3,
		FailProb: 0.3, Seed: 42, ErrorRate: 2e-5, Workers: 8,
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	sum := srv.Summary()
	if want := uint64(res.Delivered); sum.SessionsCompleted != want {
		t.Fatalf("completed %d, sender delivered %d", sum.SessionsCompleted, want)
	}
	if sum.Vehicles != 64 || sum.Streams != 128 {
		t.Fatalf("vehicles/streams = %d/%d", sum.Vehicles, sum.Streams)
	}
}

// TestSummaryDeterministic pins the seeded-population contract: with
// caps never hit, the summary JSON is byte-identical at any shard and
// worker count, and the sender-side result is equal too.
func TestSummaryDeterministic(t *testing.T) {
	cfg := PopulationConfig{
		Vehicles: 40, ECUs: []string{"ecuA", "ecuB", "ecuC"}, SessionsPerECU: 2,
		FailProb: 0.3, Seed: 7, ErrorRate: 1e-5,
	}
	type run struct{ shards, workers int }
	runs := []run{{1, 1}, {7, 4}, {3, 8}}
	var wantJSON []byte
	var wantRes PopulationResult
	for i, r := range runs {
		srv := New(Config{Shards: r.shards})
		c := cfg
		c.Workers = r.workers
		res, err := RunPopulation(context.Background(), srv, c)
		if err != nil {
			t.Fatal(err)
		}
		if srv.Summary().SessionsRejected != 0 {
			t.Fatalf("run %d hit backpressure; caps too small for the test", i)
		}
		js, err := srv.SummaryJSON()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantJSON, wantRes = js, res
			continue
		}
		if res != wantRes {
			t.Fatalf("run %d result %+v != %+v", i, res, wantRes)
		}
		if !bytes.Equal(js, wantJSON) {
			t.Fatalf("run %d (shards=%d workers=%d) summary differs:\n%s\nvs\n%s",
				i, r.shards, r.workers, js, wantJSON)
		}
	}
}

// TestRepairRollup checks the DTC-vs-structural comparison with a
// hand-built architectural context.
func TestRepairRollup(t *testing.T) {
	srv := New(Config{Shards: 2})
	srv.SetArch(&Arch{Codes: []dtc.TroubleCode{
		{Code: "P0001", Suspects: []model.ResourceID{"ecuA", "ecuB"}},
		{Code: "P0002", Suspects: []model.ResourceID{"ecuB", "ecuC", "ecuD"}},
	}})
	// ecuA fails on v1 (ambiguity {A,B} = 2), ecuC on v2 (ambiguity
	// {B,C,D} = 3), ecuX on v3 (no code suspects it).
	ingestAll(t, srv, "v1", "ecuA", chunksFor(t, "ecuA", 1, failData(1)))
	ingestAll(t, srv, "v2", "ecuC", chunksFor(t, "ecuC", 1, failData(1)))
	ingestAll(t, srv, "v3", "ecuX", chunksFor(t, "ecuX", 1, failData(1)))

	r := srv.Summary().Repair
	if r == nil {
		t.Fatal("no rollup despite arch")
	}
	if r.FailingECUs != 3 || r.StructuralReplacements != 3 || r.MissedByDTC != 1 {
		t.Fatalf("rollup: %+v", r)
	}
	if want := (2.0 + 3.0) / 2; r.AvgDTCAmbiguity != want {
		t.Fatalf("ambiguity %v, want %v", r.AvgDTCAmbiguity, want)
	}
	if want := (0.5 + 1.0) / 2; r.AvgFaultFreeDiscarded != want {
		t.Fatalf("discarded %v, want %v", r.AvgFaultFreeDiscarded, want)
	}
	if want := (1.0/2 + 1.0/3) / 2; math.Abs(r.FirstTryRate-want) > 1e-12 {
		t.Fatalf("first-try %v, want %v", r.FirstTryRate, want)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	srv := New(Config{Shards: 2})
	ingestAll(t, srv, "veh00001", "ecuA", chunksFor(t, "ecuA", 1, failData(2)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	code, body := get("/fleet/summary")
	var sum Summary
	if code != http.StatusOK || json.Unmarshal(body, &sum) != nil {
		t.Fatalf("summary: %d %s", code, body)
	}
	if sum.Vehicles != 1 || sum.FailingStreams != 1 {
		t.Fatalf("summary payload: %+v", sum)
	}

	code, body = get("/fleet/vehicle/veh00001")
	var v VehicleStatus
	if code != http.StatusOK || json.Unmarshal(body, &v) != nil || !v.Failing {
		t.Fatalf("vehicle: %d %s", code, body)
	}
	if code, _ = get("/fleet/vehicle/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown vehicle: %d", code)
	}

	code, body = get("/fleet/failing")
	var failing []FailingECU
	if code != http.StatusOK || json.Unmarshal(body, &failing) != nil || len(failing) != 1 {
		t.Fatalf("failing: %d %s", code, body)
	}
}

// TestSteadyStateAllocs pins the exact per-session allocation count
// of the hot ingest path once the server is warm: recycled assemblers,
// the stream's interned record key, a full ring overwriting in place,
// and no per-chunk garbage. What is left is the record parse: the ECU
// name string, plus the entry slice when the session carries fail
// entries.
func TestSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries int
		want    float64
	}{
		{"pass", 0, 1},
		{"fail-entries", 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{Shards: 1, PerShardRecords: 4})
			const runs = 200
			// Pre-build the chunk streams outside the measurement; sessions
			// must keep increasing to pass the stale check.
			warm := 16
			// runs+1 measured calls (AllocsPerRun adds a warm-up run) plus
			// the manual warm-up sessions.
			all := make([][]gateway.Chunk, runs+warm+2)
			for i := range all {
				all[i] = chunksFor(t, "ecuA", uint32(i+1), failData(tc.entries))
			}
			for i := 0; i < warm; i++ {
				ingestAll(t, srv, "v1", "ecuA", all[i])
			}
			n := warm
			avg := testing.AllocsPerRun(runs, func() {
				for _, c := range all[n] {
					if err := srv.IngestChunk("v1", "ecuA", c); err != nil {
						t.Error(err)
					}
				}
				n++
			})
			if avg != tc.want {
				t.Fatalf("steady-state ingest allocates %.2f allocs/session, want exactly %.0f", avg, tc.want)
			}
		})
	}
}

func TestPopulationNoECUs(t *testing.T) {
	if _, err := RunPopulation(context.Background(), New(Config{}), PopulationConfig{Vehicles: 1}); err == nil {
		t.Fatal("population without ECUs accepted")
	}
}

func TestPopulationCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunPopulation(ctx, New(Config{}), PopulationConfig{
		Vehicles: 4, ECUs: []string{"ecuA"}, SessionsPerECU: 100, Seed: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
}

// TestShardOfStable pins ShardOf to hash/fnv's 32-bit FNV-1a over
// 10k seeded IDs at several shard counts, so vehicles keep their
// shards, and checks it is stable and in range on fleet-style IDs.
func TestShardOfStable(t *testing.T) {
	srv := New(Config{Shards: 8})
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("veh%05d", i)
		if a, b := srv.ShardOf(id), srv.ShardOf(id); a != b || a < 0 || a >= 8 {
			t.Fatalf("ShardOf(%q) unstable: %d %d", id, a, b)
		}
	}
	rng := rand.New(rand.NewSource(7))
	ids := make([]string, 10000)
	for i := range ids {
		id := make([]byte, rng.Intn(24))
		rng.Read(id)
		ids[i] = string(id)
	}
	for _, shards := range []int{1, 4, 7, 8} {
		srv := New(Config{Shards: shards})
		for _, id := range ids {
			h := fnv.New32a()
			h.Write([]byte(id))
			if got, want := srv.ShardOf(id), int(h.Sum32()%uint32(shards)); got != want {
				t.Fatalf("shards=%d: ShardOf(%q) = %d, hash/fnv says %d", shards, id, got, want)
			}
		}
	}
}
