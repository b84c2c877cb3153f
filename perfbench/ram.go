package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// readMixLookups is the reader's fixed op mix: about 19 vehicle lookups
// per whole-fleet scan, scans alternating summary and failing.
const readMixLookups = 19

// reader issues closed-loop reads through the server's HTTP handler,
// in process and without sockets.
type reader struct {
	h       http.Handler
	vehicle func(i int) string
	lookups durs
	scans   durs
	non200  int
}

// respRecorder is a reusable in-process http.ResponseWriter.
type respRecorder struct {
	hdr  http.Header
	code int
	n    int
}

func (w *respRecorder) Header() http.Header { return w.hdr }

func (w *respRecorder) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}

func (w *respRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// loop issues reads until stop is closed. Every read waits for its
// reply; the vehicles looked up come from the seed.
func (rd *reader) loop(seed uint64, stop <-chan struct{}) {
	w := &respRecorder{hdr: make(http.Header)}
	scans := 0
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		var url string
		scan := i%(readMixLookups+1) == readMixLookups
		switch {
		case !scan:
			url = "/fleet/vehicle/" + rd.vehicle(int(splitmix64(seed+uint64(i))>>1))
		case scans%2 == 0:
			url = "/fleet/summary"
		default:
			url = "/fleet/failing"
		}
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			rd.non200++
			continue
		}
		clear(w.hdr)
		w.code, w.n = 0, 0
		t0 := time.Now()
		rd.h.ServeHTTP(w, req)
		d := time.Since(t0)
		if w.code != http.StatusOK || w.n == 0 {
			rd.non200++
		}
		if scan {
			rd.scans = append(rd.scans, d)
			scans++
		} else {
			rd.lookups = append(rd.lookups, d)
		}
	}
}

// ramPass is one replay into a fresh RAM-only server: session 1 of every
// stream is preloaded untimed, so reads always cover the whole fleet,
// then the writers replay sessions 2 on, optionally beside one reader.
type ramPass struct {
	rep          *replay
	rd           *reader // nil without a reader
	srv          *fleet.Server
	backpressure uint64
}

func runRAMPass(rec *recording, arch *fleet.Arch, writers int, readSeed uint64, withReader bool, tracer *obs.Tracer) (*ramPass, error) {
	srv := fleet.New(fleet.Config{})
	srv.SetArch(arch)
	pre := replayInto(srv, rec, 1, 1, runtime.GOMAXPROCS(0), false)
	if pre.lost+pre.mismatches != 0 {
		return nil, checkf("preload: %d sessions lost, %d chunk verdicts differ", pre.lost, pre.mismatches)
	}
	// Attached after the preload, so its spans cover the timed replay
	// only; the preload's clients have returned, so nothing is serving.
	srv.SetObs(tracer)
	out := &ramPass{srv: srv}
	stop := make(chan struct{})
	done := make(chan struct{})
	if withReader {
		out.rd = &reader{h: srv.Handler(), vehicle: func(i int) string { return rec.vehicles[i%len(rec.vehicles)].id }}
		go func() {
			defer close(done)
			out.rd.loop(readSeed, stop)
		}()
	} else {
		close(done)
	}
	out.rep = replayInto(srv, rec, 2, rec.pop.sessions, writers, tracer != nil)
	close(stop)
	<-done
	if err := checkSummary("replay", srv, rec); err != nil {
		return nil, err
	}
	out.backpressure = srv.Stats().SessionsRejected
	return out, nil
}

func (rp *ramPass) rate() float64 { return float64(rp.rep.acks) / rp.rep.wall.Seconds() }

// runIngestRAM replays the RAM population with one writer per CPU. Its
// traced run adds the read phase: one writer beside one reader on the
// same shard locks.
func runIngestRAM(p params) (*run, error) {
	r := &run{}
	setup, reps, err := ingestSetup()
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup.Seconds())
	arch, err := buildArch()
	if err != nil {
		return nil, err
	}
	rec, err := record(ramPop, p.seed, arch)
	if err != nil {
		return nil, err
	}
	printRecording(p, rec, setup, reps)
	writers := runtime.GOMAXPROCS(0)
	// Warm-up: the first replay pass is not timed.
	if _, err := runRAMPass(rec, arch, writers, 0, false, nil); err != nil {
		return nil, err
	}
	if p.trace {
		return r, traceIngestRAM(p, rec, arch, r)
	}
	total := &replay{}
	var rates []float64
	var last *ramPass
	start := time.Now()
	for len(rates) == 0 || time.Since(start) < p.duration {
		rp, err := runRAMPass(rec, arch, writers, 0, false, nil)
		if err != nil {
			return r, err
		}
		if rp.backpressure != 0 {
			return r, fmt.Errorf("%d sessions hit backpressure", rp.backpressure)
		}
		total.add(rp.rep)
		rates = append(rates, rp.rate())
		last = rp
	}
	sessions := rec.sessions - rec.pop.vehicles*rec.pop.ecus // session 1 is preloaded
	r.attempted = len(rates) * sessions
	r.failed = total.lost + total.mismatches
	heap := retainedMiB(func() { last.srv = nil })
	return r, reportIngest(p, r, total, rates, heap)
}

// traceIngestRAM alternates untraced and traced write passes for the
// per-layer metrics, then runs the read phase and the durable side
// pass.
func traceIngestRAM(p params, rec *recording, arch *fleet.Arch, r *run) error {
	writers := runtime.GOMAXPROCS(0)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.TracerConfig{})
	total := &replay{}
	var untraced, traced time.Duration
	var last *ramPass
	var backpressure uint64
	passes := 0
	start := time.Now()
	for ; passes == 0 || time.Since(start) < p.duration; passes++ {
		u, err := runRAMPass(rec, arch, writers, 0, false, nil)
		if err != nil {
			return err
		}
		t, err := runRAMPass(rec, arch, writers, 0, false, tracer)
		if err != nil {
			return err
		}
		untraced += u.rep.wall
		traced += t.rep.wall
		total.add(t.rep)
		backpressure += u.backpressure + t.backpressure
		last = t
	}
	sessions := rec.sessions - rec.pop.vehicles*rec.pop.ecus
	r.attempted = passes * sessions
	r.failed = total.lost + total.mismatches
	r.set("fleet.backpressure", float64(backpressure))
	st := last.srv.Stats()
	r.set("fleet.records_evicted", float64(st.SessionsCompleted)-float64(st.RecordsStored))
	setIngestCommon(r, rec, total, traced, untraced)
	directReads(last.srv, rec, p.seed, r)
	asm, unm, err := gatewaySplit(rec, p.seed, r)
	if err != nil {
		return err
	}
	stages := obsTotals(reg)
	printIngestLedger(p, r, total, writers, traced, untraced, asm, unm)
	fmt.Fprintf(p.out, "direct reads: Summary p50 %.3f ms, Failing p50 %.3f ms, Vehicle p50 %.2f µs\n",
		r.metrics["fleet.summary_p50_ms"], r.metrics["fleet.failing_p50_ms"], r.metrics["fleet.vehicle_p50_us"])
	fmt.Fprintln(p.out, "obs cross-check (program's own stage spans vs harness timings):")
	crossCheck(p.out, "chunk_accept", stages["chunk_accept"], total.busy.Seconds(), "harness IngestChunk busy")
	crossCheck(p.out, "session_assembly", stages["session_assembly"], sum(total.ackLat.in(time.Second)), "harness ack latency sum")
	if err := readPhase(p, rec, arch, r); err != nil {
		return err
	}
	return durableSidePass(p, arch, r)
}

// readPhase replays untraced with one writer beside one reader: the
// same shard locks serve the writer, point lookups and whole-fleet
// scans, so an ingest change that costs readers shows here.
func readPhase(p params, rec *recording, arch *fleet.Arch, r *run) error {
	var lookups, scans durs
	var rates []float64
	non200 := 0
	for i := 0; len(rates) < 3 || len(scans) < minSamples; i++ {
		rp, err := runRAMPass(rec, arch, 1, p.seed+uint64(i)<<32, true, nil)
		if err != nil {
			return err
		}
		if rp.backpressure != 0 || rp.rep.lost+rp.rep.mismatches != 0 {
			return checkf("read phase: %d backpressure rejects, %d lost sessions, %d chunk verdicts differ",
				rp.backpressure, rp.rep.lost, rp.rep.mismatches)
		}
		rates = append(rates, rp.rate())
		lookups = append(lookups, rp.rd.lookups...)
		scans = append(scans, rp.rd.scans...)
		non200 += rp.rd.non200
	}
	if non200 != 0 {
		return checkf("read phase: %d reads did not return 200", non200)
	}
	lk, sc := lookups.in(time.Millisecond), scans.in(time.Millisecond)
	r.set("lookup_p50_ms", quantile(lk, 0.5))
	r.set("lookup_p90_ms", quantile(lk, 0.9))
	r.set("scan_p50_ms", quantile(sc, 0.5))
	r.set("scan_p90_ms", quantile(sc, 0.9))
	r.set("lookup_samples", float64(len(lk)))
	r.set("scan_samples", float64(len(sc)))
	r.set("fleet.write_beside_read_per_s", median(rates))
	fmt.Fprintf(p.out, "\nread phase: %d passes of 1 writer beside 1 reader; writer %.0f sessions/s (median)\n", len(rates), median(rates))
	fmt.Fprintf(p.out, "  lookup p50 %.2f µs p90 %.2f µs (n=%d); scan p50 %.3f ms p90 %.3f ms (n=%d); all reads 200\n",
		1e3*quantile(lk, 0.5), 1e3*quantile(lk, 0.9), len(lk), quantile(sc, 0.5), quantile(sc, 0.9), len(sc))
	return nil
}
