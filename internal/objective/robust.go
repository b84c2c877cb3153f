package objective

import (
	"math"

	"repro/internal/can"
	"repro/internal/model"
)

// RobustConfig parameterizes the optional robustness objective: the
// expected BIST transfer completion under a CAN bit-error rate plus the
// probability of missing the diagnosis deadline. Zero values select the
// defaults; a zero ErrorRate disables the objective entirely, keeping
// evaluation bit-identical to the three-objective path.
type RobustConfig struct {
	// ErrorRate is the bit-error rate of the transfer bus. 0 disables the
	// robustness objective.
	ErrorRate float64
	// DeadlineMS is the diagnosis session deadline the miss probability
	// is measured against (default 20000 — the paper's 20 s shut-off
	// threshold).
	DeadlineMS float64
	// BitRate of the transfer bus in bit/s (default 500000).
	BitRate float64
	// ErrorFrameBits per error (default can.MaxErrorFrameBits).
	ErrorFrameBits int
}

// Enabled reports whether the robustness objective is active.
func (c RobustConfig) Enabled() bool { return c.ErrorRate > 0 }

func (c RobustConfig) withDefaults() RobustConfig {
	if c.DeadlineMS <= 0 {
		c.DeadlineMS = 20_000
	}
	if c.BitRate <= 0 {
		c.BitRate = 500_000
	}
	return c
}

// errorModel returns the can.ErrorModel view of the config.
func (c RobustConfig) errorModel() can.ErrorModel {
	return can.ErrorModel{BitErrorRate: c.ErrorRate, ErrorFrameBits: c.ErrorFrameBits}
}

// EvaluateRobust computes the three base objectives plus, when the
// config enables it, the robustness score. With a disabled config the
// result is exactly Evaluate(x) — same fields, same bits — so fronts
// explored at error rate 0 are identical to the three-objective fronts.
func EvaluateRobust(x *model.Implementation, cfg RobustConfig) Vector {
	v := Evaluate(x)
	if !cfg.Enabled() {
		return v
	}
	v.RobustOn = true
	v.RobustMS, v.RobustMissProb = robustScore(x, cfg.withDefaults())
	return v
}

// robustScore evaluates the robustness objective analytically — no
// Monte Carlo in the MOEA inner loop, so the score is smooth in the
// decision variables and trivially deterministic at any worker count.
//
// Per tested ECU r with remotely stored pattern data, the mirrored
// slots of each functional message c deliver s(c) bytes per period p(c)
// with probability 1−P_err(c); the transfer behaves as a sum of
// independent slot deliveries with
//
//	mean rate  μ̇(r) = Σ s(c)/p(c) · (1−P_err(c))          (Eq. 1, degraded)
//	var  rate  σ̇²(r) = Σ s(c)² · P_err(c)(1−P_err(c))/p(c)
//
// Expected completion is s(b^D)/μ̇; the deadline-miss probability is the
// normal-approximation tail P[delivered(D) < s(b^D)] at the deadline
// window D remaining after the session runtime. The scalar objective is
//
//	score = l(b^T) + E[transfer] + P_miss · DeadlineMS
//
// so a design that rarely misses pays its expected time, while one that
// misses often is pushed a full deadline's worth away — comparable
// units, no lexicographic tricks.
func robustScore(x *model.Implementation, cfg RobustConfig) (scoreMS, missProb float64) {
	idx := indexOf(x.Spec)
	m := cfg.errorModel()
	format := can.Standard
	bwEff := make(map[model.ResourceID]float64)
	varRate := make(map[model.ResourceID]float64)
	for _, fm := range idx.funcMsgs {
		r, ok := x.Binding[fm.src]
		if !ok {
			continue
		}
		payload := int(fm.size)
		if payload > can.MaxPayload {
			payload = can.MaxPayload
		}
		p := m.FrameErrorProb(can.FrameBits(payload, format))
		bwEff[r] += fm.bw * (1 - p)
		varRate[r] += float64(fm.size) * float64(fm.size) * p * (1 - p) / fm.period
	}
	sc := getScratch()
	sel, _ := fillSelected(x, sc)
	worst, worstMiss := 0.0, 0.0
	for _, s := range sel {
		t := s.t.WCETms
		miss := 0.0
		if bD := x.Spec.DataTaskFor(s.t); bD != nil {
			if dataRes, ok := x.Binding[bD.ID]; ok && dataRes != s.r {
				if b := bwEff[s.r]; b > 0 {
					t += float64(bD.MemBytes) / b
					miss = transferMissProb(float64(bD.MemBytes), b, varRate[s.r], cfg.DeadlineMS-s.t.WCETms)
				} else {
					t = math.Inf(1)
					miss = 1
				}
			}
			// Locally stored data needs no bus transfer: immune to errors.
		}
		score := t + miss*cfg.DeadlineMS
		if score > worst {
			worst = score
		}
		if miss > worstMiss {
			worstMiss = miss
		}
	}
	putScratch(sc)
	return worst, worstMiss
}

// transferMissProb is the normal-approximation probability that fewer
// than mem bytes arrive within the window, given the effective delivery
// rate (bytes/ms) and the delivery variance rate (bytes²/ms).
func transferMissProb(mem, rateEff, varRate, windowMS float64) float64 {
	if windowMS <= 0 {
		return 1
	}
	mu := rateEff * windowMS
	sigma2 := varRate * windowMS
	if sigma2 <= 0 {
		if mu >= mem {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc((mu-mem)/math.Sqrt(2*sigma2))
}

// WorstCaseRobust extends the WorstCase penalty vector with a finite
// robustness corner: the worst finite transfer stretched by the largest
// per-frame retransmission factor, plus one full deadline (the miss
// probability at its ceiling of 1). Every feasible implementation with
// a finite degraded transfer weakly dominates it, and no ±Inf leaks
// into crowding or indicator normalization.
func WorstCaseRobust(spec *model.Specification, cfg RobustConfig) Vector {
	v := WorstCase(spec)
	if !cfg.Enabled() {
		return v
	}
	cfg = cfg.withDefaults()
	v.RobustOn = true
	p := cfg.errorModel().FrameErrorProb(can.FrameBits(can.MaxPayload, can.Standard))
	den := 1 - p
	if den < 1e-12 {
		den = 1e-12
	}
	v.RobustMS = v.ShutOffMS/den + cfg.DeadlineMS
	v.RobustMissProb = 1
	return v
}
