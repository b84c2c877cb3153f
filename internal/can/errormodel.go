package can

import "math"

// The paper evaluates the non-intrusive transfer of Section III-B on an
// ideal, error-free bus. Real CAN links suffer bit errors; ISO 11898
// reacts with an error frame (17–31 bits of recovery overhead),
// automatic retransmission, and the error-confinement state machine
// driven by the transmit/receive error counters (TEC/REC):
//
//	error-active  —TEC≥128∨REC≥128→  error-passive  —TEC>255→  bus-off
//
// ErrorModel describes one such deterministic error process. The error
// positions are drawn from a seeded stream (ErrorStream), so every
// simulation is byte-identical run-to-run and independent of worker
// count — the same discipline as the rest of the repository.

// ControllerState is the ISO 11898 error-confinement state of a CAN
// controller.
type ControllerState int

const (
	// ErrorActive is the normal state: errors are signalled with active
	// (dominant) error flags.
	ErrorActive ControllerState = iota
	// ErrorPassive is entered at TEC ≥ 128 or REC ≥ 128: the node may
	// still transmit but signals errors recessively and must respect the
	// suspend-transmission time. The degraded-mode policy of the gateway
	// falls back to local b^D storage here.
	ErrorPassive
	// BusOff is entered at TEC > 255: the node is disconnected from the
	// bus and the transfer cannot complete.
	BusOff
)

// String returns the conventional name of the state.
func (s ControllerState) String() string {
	switch s {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	case BusOff:
		return "bus-off"
	}
	return "unknown"
}

// Error-confinement thresholds of ISO 11898-1.
const (
	errorPassiveTEC = 128
	busOffTEC       = 256
)

// ErrorCounters is the TEC/REC pair of one controller with the ISO
// 11898 counting rules for a transmitting node: +8 per transmit error,
// −1 per successful transmission (floored at 0).
type ErrorCounters struct {
	TEC int
	REC int
}

// OnTxError applies the transmit-error increment.
func (c *ErrorCounters) OnTxError() { c.TEC += 8 }

// OnTxSuccess applies the successful-transmission decrement.
func (c *ErrorCounters) OnTxSuccess() {
	if c.TEC > 0 {
		c.TEC--
	}
}

// State returns the error-confinement state implied by the counters.
func (c ErrorCounters) State() ControllerState {
	switch {
	case c.TEC >= busOffTEC:
		return BusOff
	case c.TEC >= errorPassiveTEC || c.REC >= errorPassiveTEC:
		return ErrorPassive
	}
	return ErrorActive
}

// MaxErrorFrameBits is the worst-case error-frame overhead of ISO
// 11898 that every error costs: 6-bit error flag, up to 6 echoed flag
// bits, 8-bit delimiter, 3-bit intermission and an error-passive
// transmitter's 8-bit suspend transmission (17 bits at best).
const MaxErrorFrameBits = 31

// ErrorModel is a deterministic, seeded CAN error process: every
// transmitted bit is corrupted independently with probability
// BitErrorRate, each corruption costs an error frame plus the automatic
// retransmission of the victim frame.
type ErrorModel struct {
	// BitErrorRate is the independent per-bit corruption probability
	// (typical automotive links: 1e-7 … 1e-4). 0 disables the model:
	// every fault-aware function then takes the identical code path as
	// its error-free counterpart.
	BitErrorRate float64
	// Seed selects the deterministic error stream for simulation.
	Seed uint64
}

// Enabled reports whether the model injects any errors.
func (m ErrorModel) Enabled() bool { return m.BitErrorRate > 0 }

// FrameErrorProb returns the probability that a frame of the given
// wire length is corrupted: 1 − (1−BER)^bits.
func (m ErrorModel) FrameErrorProb(bits int) float64 {
	if m.BitErrorRate <= 0 || bits <= 0 {
		return 0
	}
	if m.BitErrorRate >= 1 {
		return 1
	}
	return 1 - math.Pow(1-m.BitErrorRate, float64(bits))
}

// MeanErrorGapMS returns the mean time between bit errors on the bus in
// milliseconds — the sporadic error inter-arrival the fault-aware
// response-time analysis charges (cf. Tindell/Burns' error-recovery
// term). +Inf when the model is disabled.
func (m ErrorModel) MeanErrorGapMS(bus Bus) float64 {
	if m.BitErrorRate <= 0 || bus.BitRate <= 0 {
		return math.Inf(1)
	}
	return 1000 / (m.BitErrorRate * bus.BitRate)
}

// ErrorStream is the deterministic random source of the error process:
// splitmix64, whose whole state is one word, so simulations replay
// exactly from a seed.
type ErrorStream struct {
	x uint64
}

// NewErrorStream returns a stream for the given seed.
func NewErrorStream(seed uint64) *ErrorStream { return &ErrorStream{x: seed} }

// Uint64 returns the next raw 64-bit draw.
func (s *ErrorStream) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns the next draw in [0,1).
func (s *ErrorStream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}
