// Robustness walk-through: the fail data of a BIST session must cross
// a CAN segment that drops and corrupts frames. The example shows the
// full fault-tolerance ladder of the reproduction —
//
//  1. a seeded ISO 11898 error process degrades the diagnosis slots
//     (Eq. (1) transfer time under errors),
//
//  2. the gateway's reliable session (CRC chunks, bounded retry,
//     exponential backoff) still delivers the record intact,
//
//  3. a harsh error burst exhausts the retry budget: the session
//     falls back to local b^D storage and later RESUMES from
//     the first undelivered chunk — re-deriving the pending window
//     signature with stumps.SignatureWindow instead of re-running the
//     whole test,
//
//  4. and the DSE picks storage mappings with the degraded-mode
//     objective: gateway-stored pattern data is penalized by its
//     expected transfer time and deadline-miss probability.
//
//     go run ./examples/robust
package main

import (
	"fmt"
	"log"

	"repro/internal/can"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/gateway"
	"repro/internal/moea"
	"repro/internal/netlist"
	"repro/internal/objective"
	"repro/internal/stumps"
)

func main() {
	// --- 1. BIST fail data on a bus with a real error process. -------
	cfg := stumps.Config{Chains: 8, ChainLen: 10, Seed: 42, WindowPatterns: 16, RestoreCycles: 200, TestClockHz: 40e6}
	const nPatterns = 256
	cut := netlist.ScanCUT(103, cfg.Chains, cfg.ChainLen, 4)
	session, err := stumps.NewSession(cut, cfg)
	if err != nil {
		log.Fatal(err)
	}
	faults := netlist.CollapsedFaults(cut)
	fs := faultsim.NewFaultSim(cut, faults)
	prpg, err := stumps.NewPRPG(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fs.RunCoverage(prpg, nPatterns); err != nil {
		log.Fatal(err)
	}
	dets := fs.Detections()
	if len(dets) == 0 {
		log.Fatal("no detectable fault in the CUT")
	}
	injected := dets[len(dets)/2].Fault
	fd, err := session.RunDiagnostic(nPatterns, injected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BIST session: %d of %d windows failing after injecting %v\n",
		len(fd.Entries), fd.Windows, injected)

	bus := can.Bus{Name: "diag", BitRate: 500_000}
	ideal := can.TransferTimeMS(int64(fd.SizeBytes(32)), diagFrames())
	degraded := can.TransferTimeMSFaulty(bus, int64(fd.SizeBytes(32)), diagFrames(), can.ErrorModel{BitErrorRate: 1e-4})
	fmt.Printf("Eq. (1) transfer of the %d-byte record: %.2f ms ideal, %.2f ms at BER 1e-4\n\n",
		fd.SizeBytes(32), ideal, degraded)

	// --- 2. Reliable delivery through a lossy channel. ---------------
	var collector gateway.Collector
	scfg := gateway.SessionConfig{ChunkBytes: 32}
	res, err := collector.IngestReliable("ecu03", fd, bus, can.ErrorModel{BitErrorRate: 1e-3, Seed: 7}, scfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reliable session at BER 1e-3: delivered=%v after %d chunk sends (%d retries), %.2f ms\n",
		res.Delivered, res.ChunksSent, res.Retries, res.ElapsedMS)
	fmt.Printf("gateway fail memory now holds %d record(s), %d bytes\n\n",
		len(collector.Records()), collector.StorageBytes())

	// --- 3. Bus-off → local fallback → resume. -----------------------
	harsh := can.ErrorModel{BitErrorRate: 0.005, Seed: 9}
	snd, err := gateway.NewSession("ecu03", 77, fd, scfg)
	if err != nil {
		log.Fatal(err)
	}
	sink, err := gateway.NewAssembler(snd.SessionID(), snd.NumChunks())
	if err != nil {
		log.Fatal(err)
	}
	ch := gateway.NewFaultyChannel(bus, harsh, sink)
	first := snd.Run(ch)
	fmt.Printf("harsh burst (BER 5e-3): delivered=%v, local fallback=%v, controller %v, resume at chunk %d/%d\n",
		first.Delivered, first.LocalFallback, ch.State(), first.ResumeSeq, snd.NumChunks())
	if !first.LocalFallback {
		log.Fatal("expected the harsh burst to force the local-storage fallback")
	}

	// While the record waits in local b^D storage, the pending window
	// signature is recomputable without replaying the whole session:
	// SignatureWindow skips the PRPG to the window's LFSR state.
	w := fd.Windows / 2
	sig, err := session.SignatureWindow(nPatterns, w, &injected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resume primitive: window %d signature %#x re-derived standalone\n", w, sig)

	// The bus recovers; the SAME session object resumes from ResumeSeq.
	clean := gateway.NewFaultyChannel(bus, can.ErrorModel{}, sink)
	second := snd.Run(clean)
	fmt.Printf("after recovery: delivered=%v in %d chunk sends (no chunks re-sent), %.2f ms\n",
		second.Delivered, second.ChunksSent, second.ElapsedMS)
	blob, err := sink.Bytes()
	if err != nil {
		log.Fatal(err)
	}
	rec, err := gateway.Unmarshal(blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reassembled record: ECU %s, session %d, %d failing windows — intact\n\n",
		rec.ECU, rec.Session, len(rec.Fail.Entries))

	// --- 4. Degraded-mode objective in the DSE. ----------------------
	spec, err := casestudy.Small(3, 4, 7)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		log.Fatal(err)
	}
	ex := core.NewExplorer(spec, dec)
	ex.Robust = objective.RobustConfig{ErrorRate: 1e-5}
	front, err := ex.Run(moea.Options{PopSize: 24, Generations: 12, Seed: 3, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("robust DSE (BER 1e-5): %d Pareto solutions with a 4th objective\n", len(front.Solutions))
	for i, s := range front.Solutions {
		if i == 4 {
			fmt.Printf("  ... %d more\n", len(front.Solutions)-4)
			break
		}
		fmt.Printf("  cost %.1f  quality %.3f  shut-off %.1f ms  robust %.1f ms (miss p=%.3g)\n",
			s.Objectives.CostTotal, s.Objectives.TestQuality, s.Objectives.ShutOffMS,
			s.Objectives.RobustMS, s.Objectives.RobustMissProb)
	}
}

// diagFrames is the mirrored own-message slot set carrying the
// diagnosis payload in steps 1–3.
func diagFrames() []can.Frame {
	return []can.Frame{
		{ID: "own0", Priority: 1, Payload: 8, PeriodMS: 10},
		{ID: "own1", Priority: 3, Payload: 8, PeriodMS: 20},
		{ID: "own2", Priority: 5, Payload: 8, PeriodMS: 50},
	}
}
