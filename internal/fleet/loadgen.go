package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/can"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/stumps"
)

// PopulationConfig describes a simulated vehicle population streaming
// BIST sessions into a Server. Everything is derived from Seed and the
// vehicle index, so a population's outcome is a pure function of its
// config — independent of worker count, shard count, and goroutine
// interleaving (as long as the server's caps are not hit).
type PopulationConfig struct {
	// Vehicles is the population size; IDs are "veh00000"….
	Vehicles int
	// ECUs are the per-vehicle ECU names reporting BIST sessions.
	ECUs []string
	// SessionsPerECU is the number of BIST sessions each (vehicle, ECU)
	// stream reports (default 1).
	SessionsPerECU int
	// FailProb is the probability a session carries fail data.
	FailProb float64
	// Seed roots every vehicle's deterministic streams.
	Seed uint64
	// ErrorRate is the bit error rate of each vehicle's CAN segment
	// (popBus) to the gateway; Session tunes the sender's retry
	// machinery.
	ErrorRate float64
	Session   gateway.SessionConfig
	// Workers is the ingest concurrency (default 1). Vehicles are
	// claimed whole, so results are identical at any worker count.
	Workers int
	// Resume skips every session the server has already durably
	// committed (Server.LastCommitted) instead of re-sending it — the
	// sender side of crash recovery. Safe on a fresh server: nothing is
	// committed, so nothing is skipped.
	Resume bool
	// Obs, when non-nil, is threaded into every sender session so
	// gateway transfers show up as gateway_session spans and degraded
	// marks. Purely observational.
	Obs *obs.Tracer
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.SessionsPerECU <= 0 {
		c.SessionsPerECU = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Obs != nil {
		c.Session.Obs = c.Obs
	}
	return c
}

// Every simulated session reports popWindows BIST windows, a failing
// one 1 to popMaxEntries fail entries, over the 500 kbit/s popBus.
const (
	popWindows    = 64
	popMaxEntries = 8
)

var popBus = can.Bus{Name: "diag", BitRate: 500_000, Format: can.Standard}

// PopulationResult aggregates the sender-side outcome of a population
// run.
type PopulationResult struct {
	// Sessions is the number of transfer sessions attempted; Delivered
	// the fully acknowledged ones; Degraded the local-fallback aborts
	// (bus degradation or server backpressure).
	Sessions  int
	Delivered int
	Degraded  int
	// Skipped counts sessions not re-sent on a Resume run because the
	// server had already committed them.
	Skipped int
	// ChunksSent and Retries count wire activity; BusMS the simulated
	// bus time consumed across all vehicles.
	ChunksSent int
	Retries    int
	BusMS      float64
}

func (r *PopulationResult) add(o PopulationResult) {
	r.Sessions += o.Sessions
	r.Delivered += o.Delivered
	r.Degraded += o.Degraded
	r.Skipped += o.Skipped
	r.ChunksSent += o.ChunksSent
	r.Retries += o.Retries
	r.BusMS += o.BusMS
}

// serverSink adapts one (vehicle, ECU) stream onto the server's
// sharded ingest, satisfying gateway.ChunkSink so FaultyChannel's wire
// and error-confinement machinery is reused verbatim.
type serverSink struct {
	srv          *Server
	vehicle, ecu string
}

func (s serverSink) Accept(c gateway.Chunk) error {
	return s.srv.IngestChunk(s.vehicle, s.ecu, c)
}

// splitmix-style seed derivation: vehicle and ECU indices select
// disjoint deterministic streams from one root seed.
func deriveSeed(root uint64, v, e int) uint64 {
	return root ^ (uint64(v)+1)*0x9E3779B97F4A7C15 ^ (uint64(e)+1)*0xBF58476D1CE4E5B9
}

// sessionSeed narrows a stream seed to one session. Seeding each
// session independently (instead of threading one rng through the
// stream) makes a session's payload and wire behavior a pure function
// of (root, vehicle, ecu, n) — so a crashed-and-resumed run redelivers
// the exact bytes the uninterrupted run would have sent, no matter how
// many earlier sessions were skipped as already committed.
func sessionSeed(root uint64, v, e, n int) uint64 {
	return deriveSeed(root, v, e) ^ (uint64(n)+1)*0xD6E8FEB86659FD93
}

// genFail draws one session's fail data from the stream.
func genFail(rng *can.ErrorStream, cfg PopulationConfig) stumps.FailData {
	fd := stumps.FailData{Windows: popWindows}
	if rng.Float64() >= cfg.FailProb {
		return fd
	}
	n := 1 + int(rng.Uint64()%popMaxEntries)
	for i := 0; i < n; i++ {
		got := rng.Uint64()
		fd.Entries = append(fd.Entries, stumps.FailEntry{
			Window: int(rng.Uint64() % popWindows),
			Got:    got,
			Want:   got ^ 1, // a fail entry is a signature mismatch by definition
		})
	}
	return fd
}

// runVehicle streams one vehicle's sessions into the server. Each
// session gets its own seeded rng and FaultyChannel, so every
// session's payload and wire fault pattern is independently
// reproducible — the property crash-recovery redelivery rests on. (A
// real controller would carry TEC state across sessions; the model
// resets it per session, trading that nuance for exact replayability.)
func runVehicle(ctx context.Context, srv *Server, cfg PopulationConfig, v int) (PopulationResult, error) {
	var res PopulationResult
	vehicle := fmt.Sprintf("veh%05d", v)
	for e, ecu := range cfg.ECUs {
		sink := serverSink{srv: srv, vehicle: vehicle, ecu: ecu}
		var committed uint32
		if cfg.Resume {
			committed = srv.LastCommitted(vehicle, ecu)
		}
		for n := 0; n < cfg.SessionsPerECU; n++ {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			sid := uint32(n) + 1
			if sid <= committed {
				res.Skipped++
				continue
			}
			seed := sessionSeed(cfg.Seed, v, e, n)
			rng := can.NewErrorStream(seed)
			ch := gateway.NewFaultyChannel(popBus,
				can.ErrorModel{BitErrorRate: cfg.ErrorRate, Seed: seed ^ 0x94D049BB133111EB},
				sink)
			sess, err := gateway.NewSession(ecu, sid, genFail(rng, cfg), cfg.Session)
			if err != nil {
				return res, err
			}
			out := sess.Run(ch)
			res.Sessions++
			res.ChunksSent += out.ChunksSent
			res.Retries += out.Retries
			res.BusMS += out.ElapsedMS
			if out.Delivered {
				res.Delivered++
			} else {
				res.Degraded++
			}
		}
	}
	return res, nil
}

// RunPopulation streams the whole population into srv with
// cfg.Workers concurrent vehicles. Workers claim vehicles whole and
// per-vehicle results are folded in vehicle order, so the result (and
// the server's Summary, caps permitting) is byte-identical at any
// worker count. The context cancels between sessions — a drain point
// for graceful shutdown.
func RunPopulation(ctx context.Context, srv *Server, cfg PopulationConfig) (PopulationResult, error) {
	cfg = cfg.withDefaults()
	if len(cfg.ECUs) == 0 {
		return PopulationResult{}, fmt.Errorf("fleet: population has no ECUs")
	}
	results := make([]PopulationResult, cfg.Vehicles)
	errs := make([]error, cfg.Vehicles)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v := int(next.Add(1)) - 1
				if v >= cfg.Vehicles {
					return
				}
				results[v], errs[v] = runVehicle(ctx, srv, cfg, v)
			}
		}()
	}
	wg.Wait()
	var total PopulationResult
	for v := 0; v < cfg.Vehicles; v++ {
		total.add(results[v])
		if errs[v] != nil {
			return total, errs[v]
		}
	}
	return total, nil
}
