// Command fleetd runs the fleet-scale diagnosis service: a long-lived
// HTTP server ingesting BIST fail-data sessions from a simulated
// vehicle population over the gateway package's reliable chunked
// transfer, and serving fleet-level statistics — failing-ECU
// histograms, DTC-vs-structural repair rollups — as JSON.
//
// Modes:
//
//	fleetd                          serve, stream the seeded population, drain on SIGTERM
//	fleetd -oneshot                 stream the population, print the summary JSON, exit
//	fleetd -get URL                 HTTP GET a URL and print the body (smoke-test client)
//
// The population is fully determined by -seed (and the population
// shape flags), so two -oneshot runs with equal flags print identical
// bytes regardless of -shards and -workers — and regardless of whether
// tracing is on: the obs layer is purely observational.
//
// The server mounts the shared diagnostic surface next to /fleet/:
// Prometheus text on /metrics and pprof on /debug/pprof. -trace-out
// records ingest spans (chunk accepts, session assembly, gateway
// transfers) plus periodic metric snapshots as JSONL for cmd/obsdump.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/dtc"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetd: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8373", "listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file (port discovery)")
		get      = flag.String("get", "", "client mode: GET this URL, print the body, exit")
		oneshot  = flag.Bool("oneshot", false, "stream the population, print the summary JSON, exit")

		shards      = flag.Int("shards", 8, "lock-striped shards")
		records     = flag.Int("records", 4096, "fail-memory records per shard (ring capacity)")
		sessionsCap = flag.Int("sessions-cap", 1024, "open reassembly sessions per shard")
		vehiclesCap = flag.Int("vehicles-cap", 0, "tracked vehicles per shard (0 = unbounded)")

		vehicles   = flag.Int("vehicles", 200, "population size")
		ecus       = flag.Int("ecus", 4, "BIST-reporting ECUs per vehicle")
		sessions   = flag.Int("sessions-per-ecu", 2, "BIST sessions per (vehicle, ECU) stream")
		failProb   = flag.Float64("fail-prob", 0.1, "probability a session carries fail data")
		errorRate  = flag.Float64("error-rate", 1e-5, "CAN bit error rate of each vehicle's segment")
		seed       = flag.Uint64("seed", 1, "population seed")
		workers    = flag.Int("workers", runtime.NumCPU(), "concurrent ingest workers")
		chunkBytes = flag.Int("chunk-bytes", 64, "payload bytes per transfer chunk")
		noArch     = flag.Bool("no-arch", false, "skip the case-study DTC context (no repair rollup)")

		traceOut = flag.String("trace-out", "", "stream ingest trace events and metric snapshots as JSONL to this file (flight recorder; inspect with cmd/obsdump)")

		dataDir      = flag.String("data-dir", "", "durable storage directory (WAL + snapshots); empty keeps the service in-RAM only")
		snapEvery    = flag.Int("snapshot-every", 0, "snapshot after this many WAL commits (0 = durable package default)")
		snapInterval = flag.Duration("snapshot-interval", 0, "also snapshot on this wall-clock period (0 = off)")
		killAfter    = flag.Uint64("kill-after-commits", 0, "crash-test hook: SIGKILL this process at the Nth durable commit")
	)
	flag.Parse()

	if *get != "" {
		if err := client(*get); err != nil {
			log.Fatal(err)
		}
		return
	}

	srv := fleet.New(fleet.Config{
		Shards:           *shards,
		PerShardRecords:  *records,
		PerShardSessions: *sessionsCap,
		PerShardVehicles: *vehiclesCap,
	})

	// Observability: one registry backs /metrics and the flight
	// recorder; the tracer meters ingest stages and buffers events only
	// when -trace-out asks for them.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.TracerConfig{Record: *traceOut != ""})
	srv.SetObs(tracer)

	// Durable storage: recover whatever a previous process committed,
	// then WAL every further session commit. Must precede
	// RegisterMetrics so the store's series are exported too.
	if *dataDir != "" {
		dcfg := fleet.DurableConfig{
			Dir:              *dataDir,
			SnapshotEvery:    *snapEvery,
			SnapshotInterval: *snapInterval,
			Obs:              tracer,
		}
		if n := *killAfter; n > 0 {
			dcfg.OnCommit = func(lsn uint64) {
				if lsn == n {
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
			}
		}
		rec, err := srv.OpenDurable(dcfg)
		if err != nil {
			log.Fatalf("data-dir: %v", err)
		}
		log.Printf("recovered %s: snapshot lsn %d + %d wal entries -> lsn %d (%d bytes truncated, %d segments dropped, %d snapshots skipped) in %s",
			*dataDir, rec.SnapshotLSN, rec.Entries, rec.LastLSN,
			rec.TruncatedBytes, rec.RemovedSegments, rec.SkippedSnapshots, rec.Elapsed.Round(time.Microsecond))
	}
	fleet.RegisterMetrics(reg, srv)
	var rec *obs.Recorder
	if *traceOut != "" {
		var err error
		if rec, err = obs.NewRecorder(*traceOut, tracer, reg, 0); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
	}
	closeTrace := func() {
		if err := rec.Close(); err != nil { // nil-safe without -trace-out
			log.Fatalf("trace-out: %v", err)
		}
	}

	if !*noArch {
		arch, err := buildArch(*ecus)
		if err != nil {
			log.Fatalf("case-study arch: %v", err)
		}
		srv.SetArch(arch)
	}

	names := make([]string, *ecus)
	for i := range names {
		names[i] = fmt.Sprintf("ecu%02d", i+1)
	}
	pcfg := fleet.PopulationConfig{
		Vehicles:       *vehicles,
		ECUs:           names,
		SessionsPerECU: *sessions,
		FailProb:       *failProb,
		Seed:           *seed,
		ErrorRate:      *errorRate,
		Session:        gateway.SessionConfig{ChunkBytes: *chunkBytes},
		Workers:        *workers,
		Obs:            tracer,
		// With durable storage, the senders resume: sessions the recovered
		// state already committed are skipped, the rest are re-sent with
		// their per-session seeds — identical bytes to the first attempt.
		Resume: *dataDir != "",
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *oneshot {
		res, err := fleet.RunPopulation(ctx, srv, pcfg)
		if err != nil {
			log.Fatalf("population: %v", err)
		}
		log.Printf("population: %d sessions, %d delivered, %d degraded, %d skipped, %.1f bus-ms",
			res.Sessions, res.Delivered, res.Degraded, res.Skipped, res.BusMS)
		js, err := srv.SummaryJSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(js, '\n'))
		closeDurable(srv)
		closeTrace()
		return
	}

	mux := obs.NewMux(reg)
	mux.Handle("/fleet/", srv.Handler())
	hs, err := obs.Serve(*addr, mux)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(hs.Addr()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("listening on %s", hs.Addr())

	// Stream the population in the background; keep serving after it
	// finishes so the endpoints stay queryable.
	popDone := make(chan struct{})
	go func() {
		defer close(popDone)
		res, err := fleet.RunPopulation(ctx, srv, pcfg)
		if err != nil {
			log.Printf("population stopped: %v", err)
		}
		log.Printf("population: %d sessions, %d delivered, %d degraded, %.1f bus-ms",
			res.Sessions, res.Delivered, res.Degraded, res.BusMS)
	}()

	<-ctx.Done()
	stop()
	log.Print("signal received; draining")
	<-popDone // the population context is cancelled; it stops at a session boundary
	if err := hs.Shutdown(5 * time.Second); err != nil {
		log.Printf("shutdown: %v", err)
	}
	js, err := srv.SummaryJSON()
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(append(js, '\n'))
	closeDurable(srv)
	closeTrace()
	log.Print("drained")
}

// closeDurable snapshots and closes the store, reporting (but
// surviving) a degraded disk: the summary was already printed from the
// in-RAM state, which stays authoritative for this process.
func closeDurable(srv *fleet.Server) {
	if err := srv.CloseDurable(); err != nil {
		log.Printf("durable close: %v", err)
	}
}

// client GETs url and streams the body to stdout — the smoke test's
// curl replacement. Bounded: a per-request timeout instead of the
// default client's unbounded wait, and three attempts with doubling
// backoff so a just-restarting server doesn't fail the smoke test.
func client(url string) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	backoff := 100 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		resp, err := hc.Get(url)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("GET %s: %s", url, resp.Status)
			continue
		}
		_, err = io.Copy(os.Stdout, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err // partial body already written; retrying would duplicate it
		}
		return nil
	}
	return fmt.Errorf("after 3 attempts: %w", lastErr)
}

// buildArch derives the DTC context from the case-study subnet with
// nECUs ECUs (named ecu01… like the population), bound by the greedy
// decoder at the all-0.9 genotype — the BIST-everywhere corner used
// across the experiments.
func buildArch(nECUs int) (*fleet.Arch, error) {
	if nECUs < 2 {
		nECUs = 2
	}
	spec, err := casestudy.Small(nECUs, 4, 7)
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
