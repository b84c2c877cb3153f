package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/can"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/dtc"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/stumps"
)

// population is a seeded vehicle population: every vehicle streams
// sessions BIST sessions per ECU over a CAN segment with the given bit
// error rate.
type population struct {
	vehicles, ecus, sessions int
	failProb, errorRate      float64
}

var (
	// The durable side pass of the ingest-ram traced run: 32,768
	// fsync-bound commits, so snapshots cycle at the default cadence.
	durablePop = population{vehicles: 4096, ecus: 4, sessions: 2, failProb: 0.1, errorRate: 1e-5}
	// ingest-ram: 262,144 sessions overflow the 8 × 4096-record
	// fail-memory rings, so eviction runs in steady state.
	ramPop = population{vehicles: 4096, ecus: 4, sessions: 16, failProb: 0.1, errorRate: 1e-5}
)

// recChunk is one chunk as the recorder saw it on the wire, with the
// reference server's verdict. Its payload lives in the stream's arena.
type recChunk struct {
	session   uint32
	seq, tot  uint16
	crc       uint32
	off, n    uint32
	ok        bool // the reference server accepted it
	first     bool // the first chunk sent of its session
	completes bool // accepted, and it completes its session: the ack
}

// recStream is one (vehicle, ECU) stream in send order. starts[k] is the
// index of session k+1's first chunk; starts[sessions] = len(chunks).
type recStream struct {
	ecu    string
	data   []byte
	chunks []recChunk
	starts []int
}

func (s *recStream) chunk(i int) gateway.Chunk {
	c := &s.chunks[i]
	return gateway.Chunk{Session: c.session, Seq: c.seq, Total: c.tot, CRC: c.crc, Data: s.data[c.off : c.off+c.n]}
}

type recVehicle struct {
	id      string
	streams []recStream
}

// recording is a population's chunk stream, captured once before any
// clock starts, and the summary of the reference server that fed it.
type recording struct {
	pop        population
	vehicles   []recVehicle
	refSummary []byte
	sessions   int // sessions the senders ran
	acks       int // sessions the reference server acknowledged
	chunks     int
	rejects    int // chunks the reference server refused
	elapsed    time.Duration
}

// recSink copies every chunk a sender delivers and forwards it to the
// reference server, remembering the server's verdict.
type recSink struct {
	ref     *fleet.Server
	vehicle string
	st      *recStream
	last    uint32
}

func (s *recSink) Accept(c gateway.Chunk) error {
	err := s.ref.IngestChunk(s.vehicle, s.st.ecu, c)
	rc := recChunk{
		session: c.Session, seq: c.Seq, tot: c.Total, crc: c.CRC,
		off: uint32(len(s.st.data)), n: uint32(len(c.Data)),
		ok: err == nil, first: c.Session != s.last,
	}
	rc.completes = rc.ok && c.Seq == c.Total-1
	s.last = c.Session
	s.st.data = append(s.st.data, c.Data...)
	s.st.chunks = append(s.st.chunks, rc)
	return err
}

var diagBus = can.Bus{Name: "diag", BitRate: 500_000, Format: can.Standard}

// record runs the seeded senders of the population into a reference
// server with one client per CPU. Clients claim whole vehicles from an
// atomic cursor and each vehicle's streams run in order, so every
// count and the reference summary repeat exactly for a seed.
func record(pop population, seed uint64, arch *fleet.Arch) (*recording, error) {
	t0 := time.Now()
	ref := fleet.New(fleet.Config{})
	ref.SetArch(arch)
	rec := &recording{pop: pop, vehicles: make([]recVehicle, pop.vehicles)}
	errs := make([]error, pop.vehicles)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int(next.Add(1)) - 1; v < pop.vehicles; v = int(next.Add(1)) - 1 {
				rec.vehicles[v], errs[v] = recordVehicle(ref, pop, seed, v)
			}
		}()
	}
	wg.Wait()
	for v := range rec.vehicles {
		if errs[v] != nil {
			return nil, errs[v]
		}
		for _, st := range rec.vehicles[v].streams {
			for _, c := range st.chunks {
				rec.chunks++
				if !c.ok {
					rec.rejects++
				}
				if c.completes {
					rec.acks++
				}
			}
		}
	}
	rec.sessions = pop.vehicles * pop.ecus * pop.sessions
	var err error
	if rec.refSummary, err = ref.SummaryJSON(); err != nil {
		return nil, err
	}
	rec.elapsed = time.Since(t0)
	return rec, nil
}

func recordVehicle(ref *fleet.Server, pop population, seed uint64, v int) (recVehicle, error) {
	rv := recVehicle{id: fmt.Sprintf("veh%05d", v), streams: make([]recStream, pop.ecus)}
	for e := range rv.streams {
		st := &rv.streams[e]
		st.ecu = fmt.Sprintf("ecu%02d", e+1)
		sink := &recSink{ref: ref, vehicle: rv.id, st: st}
		for n := 0; n < pop.sessions; n++ {
			st.starts = append(st.starts, len(st.chunks))
			s := splitmix64(seed ^ splitmix64(uint64(v)<<16|uint64(e)<<8|uint64(n)))
			fd := genFail(can.NewErrorStream(s), pop.failProb)
			ch := gateway.NewFaultyChannel(diagBus, can.ErrorModel{BitErrorRate: pop.errorRate, Seed: s ^ 0x94D049BB133111EB}, sink)
			sess, err := gateway.NewSession(st.ecu, uint32(n+1), fd, gateway.SessionConfig{})
			if err != nil {
				return rv, err
			}
			sess.Run(ch)
		}
		st.starts = append(st.starts, len(st.chunks))
	}
	return rv, nil
}

// genFail draws one session's fail data: with probability failProb a
// failing session of 1–8 signature mismatches over 64 windows.
func genFail(rng *can.ErrorStream, failProb float64) stumps.FailData {
	fd := stumps.FailData{Windows: 64}
	if rng.Float64() >= failProb {
		return fd
	}
	n := 1 + int(rng.Uint64()%8)
	for i := 0; i < n; i++ {
		got := rng.Uint64()
		fd.Entries = append(fd.Entries, stumps.FailEntry{Window: int(rng.Uint64() % 64), Got: got, Want: got ^ 1})
	}
	return fd
}

// buildArch derives the DTC context the way cmd/fleetd does: the
// case-study subnet with 4 ECUs, bound by the greedy decoder at the
// all-0.9 genotype.
func buildArch() (*fleet.Arch, error) {
	spec, err := casestudy.Small(4, 4, 7)
	if err != nil {
		return nil, err
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		return nil, err
	}
	g := make([]float64, dec.GenotypeLen())
	for i := range g {
		g[i] = 0.9
	}
	x, err := dec.Decode(g)
	if err != nil {
		return nil, err
	}
	return &fleet.Arch{Codes: dtc.DeriveCodes(x)}, nil
}

// replay is the outcome of replaying recorded chunks into a server.
type replay struct {
	wall       time.Duration
	acks       int  // sessions acknowledged
	lost       int  // sessions the reference acknowledged and this server did not
	mismatches int  // chunks whose verdict differs from the reference's
	ackLat     durs // first chunk sent → IngestChunk return completing the session
	// Traced only: IngestChunk durations of session-completing chunks
	// (the commit) and of all others.
	commit, chunk durs
	busy          time.Duration
}

func (r *replay) add(o *replay) {
	r.acks += o.acks
	r.lost += o.lost
	r.mismatches += o.mismatches
	r.ackLat = append(r.ackLat, o.ackLat...)
	r.commit = append(r.commit, o.commit...)
	r.chunk = append(r.chunk, o.chunk...)
	r.busy += o.busy
}

// replayInto sends sessions [from, to] (1-based) of every stream to srv
// with the given number of closed-loop clients. Clients claim whole
// vehicles from an atomic cursor, so each stream's order is kept.
func replayInto(srv *fleet.Server, rec *recording, from, to, clients int, traced bool) *replay {
	parts := make([]replay, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(out *replay) {
			defer wg.Done()
			for v := int(next.Add(1)) - 1; v < len(rec.vehicles); v = int(next.Add(1)) - 1 {
				replayVehicle(srv, &rec.vehicles[v], from, to, traced, out)
			}
		}(&parts[c])
	}
	wg.Wait()
	total := &replay{wall: time.Since(t0)}
	for i := range parts {
		total.add(&parts[i])
	}
	return total
}

func replayVehicle(srv *fleet.Server, rv *recVehicle, from, to int, traced bool, out *replay) {
	for s := range rv.streams {
		st := &rv.streams[s]
		var sent time.Time
		for i := st.starts[from-1]; i < st.starts[to]; i++ {
			rc := &st.chunks[i]
			c := st.chunk(i)
			t0 := time.Now()
			if rc.first {
				sent = t0
			}
			err := srv.IngestChunk(rv.id, st.ecu, c)
			t1 := time.Now()
			if (err == nil) != rc.ok {
				out.mismatches++
			}
			if traced {
				d := t1.Sub(t0)
				out.busy += d
				if rc.completes {
					out.commit = append(out.commit, d)
				} else {
					out.chunk = append(out.chunk, d)
				}
			}
			if rc.completes {
				if err == nil {
					out.acks++
					out.ackLat = append(out.ackLat, t1.Sub(sent))
				} else {
					out.lost++
				}
			}
		}
	}
}

// checkSummary compares a server's summary with the reference's.
func checkSummary(what string, srv *fleet.Server, rec *recording) error {
	got, err := srv.SummaryJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, rec.refSummary) {
		return checkf("%s summary differs from the reference server's", what)
	}
	return nil
}

// ingestSetup times the program's start-up back to back for the set-up
// budget — fleet.New and SetArch with a freshly built DTC arch — and
// returns the median and the repetition count.
func ingestSetup() (time.Duration, int, error) {
	var ts durs
	for start := time.Now(); len(ts) == 0 || time.Since(start) < setupBudget; {
		t0 := time.Now()
		srv := fleet.New(fleet.Config{})
		arch, err := buildArch()
		if err != nil {
			return 0, 0, err
		}
		srv.SetArch(arch)
		ts = append(ts, time.Since(t0))
	}
	return time.Duration(median(ts.in(1))), len(ts), nil
}

// runDir is this run's scratch directory for durable data.
func runDir() (string, error) {
	dir := filepath.Join(scratchDir, "perfbench-data", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// fsyncBaseline times the harness's own 4 KiB write + File.Sync on the
// data directory's filesystem: the device's fsync latency, so device
// drift can be told from a program change.
func fsyncBaseline(dir string) (time.Duration, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var ts durs
	for i := 0; i < 48; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0))
	}
	return time.Duration(median(ts.in(1))), f.Close()
}

// walSegments sums the WAL segment files left in dir after a close and
// the number of frames they hold (from the segments' base LSNs to the
// last LSN).
func walSegments(dir string, lastLSN uint64) (bytesPerFrame float64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	const header = 16 // segment magic + base LSN
	var size int64
	minBase := uint64(0)
	for _, e := range ents {
		var base uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &base); err != nil || !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		size += info.Size() - header
		if minBase == 0 || base < minBase {
			minBase = base
		}
	}
	if minBase == 0 || lastLSN < minBase {
		return 0, nil
	}
	return float64(size) / float64(lastLSN-minBase+1), nil
}

// durablePass is one replay of the whole population into a fresh
// WAL-backed server, followed by the close and recovery checks.
type durablePass struct {
	rep                *replay
	stats              struct{ appends, syncs, snapshots uint64 }
	walBytesPerSession float64
	close, recover     time.Duration
	backpressure       uint64
}

func runDurablePass(rec *recording, arch *fleet.Arch, dir string, vehicles int, tracer *obs.Tracer) (*durablePass, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv := fleet.New(fleet.Config{})
	srv.SetArch(arch)
	srv.SetObs(tracer)
	if _, err := srv.OpenDurable(fleet.DurableConfig{Dir: dir, Obs: tracer}); err != nil {
		return nil, fmt.Errorf("OpenDurable: %w", err)
	}
	sub := *rec
	sub.vehicles = rec.vehicles[:vehicles]
	out := &durablePass{rep: replayInto(srv, &sub, 1, rec.pop.sessions, runtime.GOMAXPROCS(0), tracer != nil)}
	st := srv.DurableStats()
	out.stats.appends, out.stats.syncs, out.stats.snapshots = st.Appends, st.Syncs, st.Snapshots
	is := srv.Stats()
	out.backpressure = is.SessionsRejected + srv.StorageRejects()
	if vehicles < len(rec.vehicles) {
		// A warm-up pass over a prefix: nothing to compare.
		return out, srv.CloseDurable()
	}
	if err := checkSummary("replay", srv, rec); err != nil {
		return nil, err
	}
	t0 := time.Now()
	err := srv.CloseDurable()
	out.close = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if out.walBytesPerSession, err = walSegments(dir, st.LastLSN); err != nil {
		return nil, err
	}
	// Recovery: a fresh server on the same directory must come back to
	// the same summary.
	re := fleet.New(fleet.Config{})
	re.SetArch(arch)
	rc, err := re.OpenDurable(fleet.DurableConfig{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("recovery OpenDurable: %w", err)
	}
	out.recover = rc.Elapsed
	if err := checkSummary("recovered", re, rec); err != nil {
		return nil, err
	}
	if err := re.CloseDurable(); err != nil {
		return nil, err
	}
	return out, os.RemoveAll(dir)
}

// durableWarmUp measures the device's fsync baseline, then replays a
// prefix of the population once untimed: the first replay and the first
// fsyncs pay lazy start-up costs.
func durableWarmUp(p params, rec *recording, arch *fleet.Arch, dir string) (time.Duration, error) {
	fsync, err := fsyncBaseline(dir)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(p.out, "device fsync baseline: %.1f µs (median of 48 × 4 KiB write + File.Sync)\n", us(fsync))
	_, err = runDurablePass(rec, arch, filepath.Join(dir, "pass"), len(rec.vehicles)/8, nil)
	return fsync, err
}

// reportIngest sets and prints the ingest end-to-end metrics. The
// throughput is the median of the passes' rates, so one pass that
// shares the machine with a burst of other load does not move it.
func reportIngest(p params, r *run, total *replay, rates []float64, heap float64) error {
	if len(total.ackLat) < minSamples {
		return fmt.Errorf("%d ack samples, need %d", len(total.ackLat), minSamples)
	}
	lat := total.ackLat.in(time.Millisecond)
	tput := median(rates)
	r.set("throughput_per_s", tput)
	r.set("latency_p50_ms", quantile(lat, 0.5))
	r.set("latency_p90_ms", quantile(lat, 0.9))
	r.set("heap_mb", heap)
	fmt.Fprintf(p.out, "timed passes %d: %d sessions acked; %.0f sessions/s (median over passes); failed %d\n",
		len(rates), total.acks, tput, r.failed)
	fmt.Fprintf(p.out, "session ack latency p50 %.2f µs p90 %.2f µs (n=%d); retained heap %.2f MiB\n",
		1e3*quantile(lat, 0.5), 1e3*quantile(lat, 0.9), len(lat), heap)
	return nil
}

func printRecording(p params, rec *recording, setup time.Duration, reps int) {
	fmt.Fprintf(p.out, "setup: %.3f ms (median of %d)\n", ms(setup), reps)
	fmt.Fprintf(p.out, "recorded %d vehicles × %d ECUs × %d sessions in %.3f s: %d chunks (%d rejected), %d acked\n",
		rec.pop.vehicles, rec.pop.ecus, rec.pop.sessions, rec.elapsed.Seconds(), rec.chunks, rec.rejects, rec.acks)
}

// durableSidePass measures the durable layer, which no gated workload
// exercises: one traced replay of the durable population into a
// WAL-backed server on the checkout's filesystem, with the close and
// recovery checks. Its throughput follows the device's fsync latency,
// so it is reported here and not gated.
func durableSidePass(p params, arch *fleet.Arch, r *run) error {
	dir, err := runDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec, err := record(durablePop, p.seed, arch)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "\ndurable side pass: %d vehicles × %d ECUs × %d sessions, %d clients\n",
		rec.pop.vehicles, rec.pop.ecus, rec.pop.sessions, runtime.GOMAXPROCS(0))
	fsync, err := durableWarmUp(p, rec, arch, dir)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.TracerConfig{})
	t, err := runDurablePass(rec, arch, filepath.Join(dir, "pass"), len(rec.vehicles), tracer)
	if err != nil {
		return err
	}
	// Every session must be acked, on the reference server and here.
	if f := t.rep.lost + t.rep.mismatches + rec.sessions - rec.acks; f != 0 || t.backpressure != 0 {
		return checkf("durable side pass: %d failed sessions, %d backpressure rejects", f, t.backpressure)
	}
	r.set("durable.appends", float64(t.stats.appends))
	r.set("durable.syncs", float64(t.stats.syncs))
	r.set("durable.batch_mean", float64(t.stats.appends)/float64(t.stats.syncs))
	r.set("durable.wal_bytes_per_session", t.walBytesPerSession)
	r.set("durable.fsync_us", us(fsync))
	r.set("durable.snapshots", float64(t.stats.snapshots))
	r.set("durable.close_ms", ms(t.close))
	r.set("durable.recover_ms", ms(t.recover))
	commit := t.rep.commit.in(time.Microsecond)
	fmt.Fprintf(p.out, "  %d sessions acked in %.3f s; commit p50 %.1f µs p90 %.1f µs\n", t.rep.acks, t.rep.wall.Seconds(),
		quantile(commit, 0.5), quantile(commit, 0.9))
	fmt.Fprintf(p.out, "  %d appends / %d fsyncs (%.2f per fsync), %d snapshots, %.1f WAL bytes/session, device fsync %.1f µs, close %.1f ms, recover %.1f ms\n",
		t.stats.appends, t.stats.syncs, r.metrics["durable.batch_mean"], t.stats.snapshots,
		t.walBytesPerSession, us(fsync), ms(t.close), ms(t.recover))
	crossCheck(p.out, "wal_append", obsTotals(reg)["wal_append"], sum(t.rep.commit.in(time.Second)), "harness commit-chunk busy")
	return nil
}

// setIngestCommon sets the replay's per-layer metrics.
func setIngestCommon(r *run, rec *recording, total *replay, traced, untraced time.Duration) {
	r.set("gateway.record_s", rec.elapsed.Seconds())
	r.set("gateway.chunks_per_session", float64(rec.chunks)/float64(rec.sessions))
	r.set("gateway.chunk_reject_ratio", float64(rec.rejects)/float64(rec.chunks))
	r.set("fleet.ingest_busy_s", total.busy.Seconds())
	r.set("fleet.chunk_p50_us", quantile(total.chunk.in(time.Microsecond), 0.5))
	commit := total.commit.in(time.Microsecond)
	r.set("fleet.commit_p50_us", quantile(commit, 0.5))
	r.set("fleet.commit_p90_us", quantile(commit, 0.9))
	lat := total.ackLat.in(time.Millisecond)
	r.set("latency_samples", float64(len(lat)))
	r.set("fail_ratio", float64(r.failed)/float64(r.attempted))
	r.set("trace.overhead", traced.Seconds()/untraced.Seconds()-1)
}

// gatewaySplit replays a seeded sample of recorded sessions through the
// receiver's own steps — gateway.NewAssembler/Accept/Bytes, then
// gateway.Unmarshal — and returns the mean time of each per session.
func gatewaySplit(rec *recording, seed uint64, r *run) (asm, unm time.Duration, err error) {
	const samples = 4096
	type sess struct {
		st     *recStream
		chunks []int
	}
	pick := make([]sess, 0, samples)
	for i := 0; i < samples; i++ {
		h := splitmix64(seed ^ uint64(i)*0x9E3779B97F4A7C15)
		rv := &rec.vehicles[h%uint64(len(rec.vehicles))]
		st := &rv.streams[(h>>20)%uint64(len(rv.streams))]
		k := int((h >> 40) % uint64(rec.pop.sessions))
		var ok []int
		for j := st.starts[k]; j < st.starts[k+1]; j++ {
			if st.chunks[j].ok {
				ok = append(ok, j)
			}
		}
		pick = append(pick, sess{st, ok})
	}
	// One assembler, reset per session as the server's pooled ones are;
	// each record is parsed straight from its buffer, as the server does.
	a, err := gateway.NewAssembler(1, 1)
	if err != nil {
		return 0, 0, err
	}
	var tAsm, tUnm time.Duration
	for _, s := range pick {
		first := s.st.chunks[s.chunks[0]]
		t0 := time.Now()
		if err := a.Reset(first.session, first.tot); err != nil {
			return 0, 0, err
		}
		for _, j := range s.chunks {
			if err := a.Accept(s.st.chunk(j)); err != nil {
				return 0, 0, checkf("split assembly: %v", err)
			}
		}
		b, err := a.Bytes()
		if err != nil {
			return 0, 0, checkf("split assembly: %v", err)
		}
		t1 := time.Now()
		rec, err := gateway.Unmarshal(b)
		t2 := time.Now()
		if err != nil || rec.ECU != s.st.ecu {
			return 0, 0, checkf("split unmarshal of a %s session: %v", s.st.ecu, err)
		}
		tAsm += t1.Sub(t0)
		tUnm += t2.Sub(t1)
	}
	asm, unm = tAsm/samples, tUnm/samples
	r.set("gateway.assemble_us", us(asm))
	r.set("gateway.unmarshal_us", us(unm))
	return asm, unm, nil
}

// printIngestLedger prints the traced passes' wall time against the
// layers' self times. IngestChunk runs on every client, so its
// client-seconds count divided by the client count.
func printIngestLedger(p params, r *run, total *replay, clients int, traced, untraced, asm, unm time.Duration) {
	wall := traced.Seconds()
	c := float64(clients)
	gw := float64(total.acks) * (asm + unm).Seconds() / c
	fleetSelf := total.busy.Seconds()/c - gw
	residual := wall - fleetSelf - gw
	r.set("ledger.residual_s", residual)
	fmt.Fprintf(p.out, "\nledger ingest-ram: traced replay wall %.3f s, %d sessions acked, %d clients\n", wall, total.acks, clients)
	row := func(n string, s float64) { fmt.Fprintf(p.out, "  %-40s %9.3f s  %5.1f %%\n", n, s, 100*s/wall) }
	row("fleet self (IngestChunk minus below) / clients", fleetSelf)
	row("gateway receiver (assemble+unmarshal, split est.)", gw)
	row("residual (harness replay loop, idle)", residual)
	fmt.Fprintf(p.out, "tracing overhead: traced %.3f s / untraced %.3f s − 1 = %+.2f %%\n", traced.Seconds(), untraced.Seconds(), 100*(traced.Seconds()/untraced.Seconds()-1))
	fmt.Fprintf(p.out, "samples: ack %d, commit %d, chunk %d; commit p50 %.2f µs p90 %.2f µs\n",
		len(total.ackLat), len(total.commit), len(total.chunk), r.metrics["fleet.commit_p50_us"], r.metrics["fleet.commit_p90_us"])
}

// directReads times Summary, Failing and Vehicle called directly on the
// final server, so the JSON-encoding share of the HTTP reads shows.
func directReads(srv *fleet.Server, rec *recording, seed uint64, r *run) {
	var summ, fail, veh durs
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		srv.Summary()
		t1 := time.Now()
		srv.Failing()
		t2 := time.Now()
		summ = append(summ, t1.Sub(t0))
		fail = append(fail, t2.Sub(t1))
	}
	for i := 0; i < 1000; i++ {
		id := rec.vehicles[splitmix64(seed+uint64(i))%uint64(len(rec.vehicles))].id
		t0 := time.Now()
		srv.Vehicle(id)
		veh = append(veh, time.Since(t0))
	}
	r.set("fleet.summary_p50_ms", median(summ.in(time.Millisecond)))
	r.set("fleet.failing_p50_ms", median(fail.in(time.Millisecond)))
	r.set("fleet.vehicle_p50_us", median(veh.in(time.Microsecond)))
}
