package can

import (
	"math"
	"sort"
)

// This file extends the ideal-bus analyses of mirror.go and rta.go with
// the ErrorModel: Eq. (1) transfer times inflated by retransmission
// load, worst-case response times charged with the sporadic
// error-recovery term, the non-intrusiveness verdict under errors, and
// a deterministic slot-level simulation of a mirrored transfer
// including the TEC-driven error-confinement transitions.
//
// Every function takes the identical code path as its error-free
// counterpart when the model is disabled (BitErrorRate == 0), so
// results at rate 0 are bit-identical to TransferTimeMS / AnalyzeBus.

// TransferTimeMSFaulty evaluates Eq. (1) under the error model: a
// mirrored slot whose frame is corrupted delivers nothing (the
// automatic retransmission consumes the following slot), so the
// effective bandwidth of message c shrinks to (s(c)/p(c))·(1−P_err(c))
// with P_err(c) the frame error probability at the wire length of the
// segmented slot:
//
//	q_err(b_r^T) = s(b_r^D) / Σ_{c ∈ I} s(c)/p(c) · (1−P_err(c))
//
// With a disabled model this is exactly TransferTimeMS.
func TransferTimeMSFaulty(bus Bus, dataBytes int64, frames []Frame, m ErrorModel) float64 {
	if !m.Enabled() {
		return TransferTimeMS(dataBytes, frames)
	}
	bw := 0.0 // effective bytes per millisecond
	for _, f := range frames {
		bw += f.BandwidthBytesPerMS() * (1 - m.FrameErrorProb(slotWireBits(bus, f)))
	}
	if bw <= 0 {
		return math.Inf(1)
	}
	return float64(dataBytes) / bw
}

// slotWireBits returns the worst-case wire length of one mirrored slot
// of the frame: long payloads are segmented into MaxPayload frames, and
// the per-slot exposure to bit errors is one such frame.
func slotWireBits(bus Bus, f Frame) int {
	payload := f.Payload
	if payload > MaxPayload {
		payload = MaxPayload
	}
	return FrameBits(payload, bus.Format)
}

// AnalyzeBusUnderErrors performs the AnalyzeBus response-time analysis
// with the sporadic error-recovery term of Tindell & Burns: errors
// arrive with a minimum inter-arrival equal to the model's mean error
// gap, and each costs an error frame plus the retransmission of the
// longest frame of the set:
//
//	E(t) = ⌈t / T_err⌉ · (MaxErrorFrameBits·τ_bit + max_k C_k)
//
// added to every busy-period and response-time recurrence. With a
// disabled model the result is bit-identical to AnalyzeBus.
func AnalyzeBusUnderErrors(bus Bus, frames []Frame, m ErrorModel) ([]ResponseTime, error) {
	if !m.Enabled() {
		return AnalyzeBus(bus, frames)
	}
	gap := m.MeanErrorGapMS(bus)
	if math.IsInf(gap, 1) {
		return AnalyzeBus(bus, frames)
	}
	cMax := 0.0
	for _, f := range frames {
		if c := bus.TxTimeMS(f.Payload); c > cMax {
			cMax = c
		}
	}
	cErr := float64(MaxErrorFrameBits)*bus.BitTimeMS() + cMax
	return analyzeBus(bus, frames, func(t float64) float64 {
		if t <= 0 {
			return 0
		}
		return math.Ceil(t/gap) * cErr
	})
}

// ErrorRobustReport is the verdict of VerifyNonIntrusiveUnderErrors:
// whether mirroring stays non-intrusive when the bus carries the
// configured error load, and which third-party deadlines the
// retransmission load breaks either way.
type ErrorRobustReport struct {
	NonIntrusiveReport
	// DeadlineMisses lists third-party frames whose WCRT exceeds their
	// period under the error load with the mirrored set active. These
	// frames miss independent of mirroring — the error load alone sinks
	// them — but they bound the error rate up to which the certified
	// schedule holds.
	DeadlineMisses []string
}

// Holds reports whether mirroring stays non-intrusive AND every
// third-party deadline survives the error load.
func (r ErrorRobustReport) Holds() bool {
	return r.OK() && len(r.DeadlineMisses) == 0
}

// VerifyNonIntrusiveUnderErrors re-checks the Section III-B claim on a
// faulty bus: swapping the functional frames `own` for Mirror(own) must
// not change any third-party worst-case response time computed under
// the error model, and the third-party deadlines must still hold at the
// given error rate. With a disabled model this reduces to
// VerifyNonIntrusive plus a schedulability check.
func VerifyNonIntrusiveUnderErrors(bus Bus, own, others []Frame, m ErrorModel) (ErrorRobustReport, error) {
	before, err := AnalyzeBusUnderErrors(bus, append(append([]Frame(nil), own...), others...), m)
	if err != nil {
		return ErrorRobustReport{}, err
	}
	mirrored := Mirror(own, "'")
	after, err := AnalyzeBusUnderErrors(bus, append(append([]Frame(nil), mirrored...), others...), m)
	if err != nil {
		return ErrorRobustReport{}, err
	}
	byID := func(rts []ResponseTime) map[string]ResponseTime {
		out := make(map[string]ResponseTime, len(rts))
		for _, rt := range rts {
			out[rt.Frame] = rt
		}
		return out
	}
	b, a := byID(before), byID(after)
	var rep ErrorRobustReport
	for _, f := range others {
		d := math.Abs(a[f.ID].WCRTms - b[f.ID].WCRTms)
		if d > 0 {
			rep.Intrusive = append(rep.Intrusive, f.ID)
			if d > rep.MaxDeltaMS {
				rep.MaxDeltaMS = d
			}
		}
		if !a[f.ID].Schedulable {
			rep.DeadlineMisses = append(rep.DeadlineMisses, f.ID)
		}
	}
	sort.Strings(rep.DeadlineMisses)
	return rep, nil
}

// TransferStats is the outcome of one simulated mirrored transfer under
// the error model.
type TransferStats struct {
	// CompletionMS is when the last byte was delivered; +Inf when the
	// transfer cannot complete (no bandwidth, or bus-off struck first).
	CompletionMS float64
	// DeliveredBytes counts payload bytes that arrived intact.
	DeliveredBytes int64
	// Slots counts mirrored slot activations used; Attempts counts frame
	// transmissions including automatic retransmissions; Errors counts
	// corrupted transmissions (= retransmissions triggered).
	Slots    int
	Attempts int
	Errors   int
	// PeakTEC is the highest transmit error counter value reached.
	PeakTEC int
	// FinalState is the controller's error-confinement state at the end.
	FinalState ControllerState
	// ErrorPassiveAtMS is when the controller first went error-passive
	// (+Inf if never) — the trigger of the gateway's degraded-mode
	// fallback to local storage. BusOffAtMS likewise for bus-off.
	ErrorPassiveAtMS float64
	BusOffAtMS       float64
}

// BusOff reports whether the transfer died in bus-off.
func (s TransferStats) BusOff() bool { return s.FinalState == BusOff }

// SimulateTransfer replays a mirrored transfer of dataBytes over the
// (now silent) functional slots of `frames` under the error model: slot
// activations follow each frame's period, every transmission is
// corrupted with the frame's wire-length error probability drawn from
// the model's seeded stream, corrupted frames cost an error frame and
// are retransmitted immediately, and the TEC walks the ISO 11898
// error-confinement states. The simulation is deterministic: the same
// model seed replays the identical error pattern.
func SimulateTransfer(bus Bus, frames []Frame, dataBytes int64, m ErrorModel) TransferStats {
	st := TransferStats{
		CompletionMS:     math.Inf(1),
		ErrorPassiveAtMS: math.Inf(1),
		BusOffAtMS:       math.Inf(1),
	}
	type slotSrc struct {
		f       Frame
		payload int
		pErr    float64
		txMS    float64
		next    float64 // next activation time
	}
	var srcs []slotSrc
	for _, f := range frames {
		if f.Payload <= 0 || f.PeriodMS <= 0 {
			continue
		}
		payload := f.Payload
		if payload > MaxPayload {
			payload = MaxPayload
		}
		srcs = append(srcs, slotSrc{
			f:       f,
			payload: payload,
			pErr:    m.FrameErrorProb(slotWireBits(bus, f)),
			txMS:    bus.TxTimeMS(payload),
			next:    f.PeriodMS, // first mirrored slot after one period
		})
	}
	if len(srcs) == 0 || dataBytes <= 0 || bus.BitRate <= 0 {
		if dataBytes <= 0 {
			st.CompletionMS = 0
		}
		return st
	}
	// Deterministic slot order: earliest activation first, ties broken by
	// priority then ID.
	sort.Slice(srcs, func(i, j int) bool {
		if srcs[i].f.Priority != srcs[j].f.Priority {
			return srcs[i].f.Priority < srcs[j].f.Priority
		}
		return srcs[i].f.ID < srcs[j].f.ID
	})
	stream := NewErrorStream(m.Seed)
	var ctr ErrorCounters
	errFrameMS := float64(MaxErrorFrameBits) * bus.BitTimeMS()
	now := 0.0
	for st.DeliveredBytes < dataBytes {
		// Pick the earliest pending slot (first in slice order on ties).
		best := 0
		for i := 1; i < len(srcs); i++ {
			if srcs[i].next < srcs[best].next {
				best = i
			}
		}
		s := &srcs[best]
		if s.next > now {
			now = s.next
		}
		s.next += s.f.PeriodMS
		st.Slots++
		// Transmit with automatic retransmission until success or bus-off.
		for {
			st.Attempts++
			now += s.txMS
			if m.Enabled() && stream.Float64() < s.pErr {
				st.Errors++
				ctr.OnTxError()
				now += errFrameMS
				if ctr.TEC > st.PeakTEC {
					st.PeakTEC = ctr.TEC
				}
				if ctr.State() == ErrorPassive && math.IsInf(st.ErrorPassiveAtMS, 1) {
					st.ErrorPassiveAtMS = now
				}
				if ctr.State() == BusOff {
					st.BusOffAtMS = now
					st.FinalState = BusOff
					return st
				}
				continue
			}
			ctr.OnTxSuccess()
			break
		}
		st.DeliveredBytes += int64(s.payload)
	}
	st.CompletionMS = now
	st.FinalState = ctr.State()
	return st
}
