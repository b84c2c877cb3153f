// Package objective evaluates the paper's three design objectives
// (Section III-D) on an implementation: test quality (Eq. 4), shut-off
// time (Eq. 5) with the non-intrusive transfer time of Eq. (1), and
// monetary costs (hardware plus distributed pattern memory).
//
// Evaluation is the MOEA's inner loop, so the implementation-independent
// parts of every objective (functional message bandwidths, task-kind
// snapshots, resource kinds) live in a per-specification static index
// built once and shared by all workers, and the per-evaluation working
// memory is pooled (see index.go). The floating-point accumulation
// orders of the original per-objective rescans are preserved exactly, so
// identical implementations score bit-identical objective vectors.
package objective

import (
	"math"
	"slices"

	"repro/internal/can"
	"repro/internal/model"
)

// Vector bundles the objective values of one implementation: the three
// paper objectives, plus the optional robustness objective when the
// exploration runs with a CAN error model (see RobustConfig).
type Vector struct {
	// CostTotal is the monetary cost to minimize.
	CostTotal float64
	// TestQuality is the average stuck-at coverage over allocated ECUs,
	// in [0,1], to maximize.
	TestQuality float64
	// ShutOffMS is the maximum extra awake time in milliseconds, to
	// minimize. +Inf when a gateway-stored BIST has no mirrorable
	// functional message bandwidth.
	ShutOffMS float64

	// RobustMS is the degraded-mode score (expected transfer completion
	// plus deadline-miss penalty, see robustScore) — only meaningful when
	// RobustOn is set.
	RobustMS float64
	// RobustMissProb is the worst per-session deadline-miss probability.
	RobustMissProb float64
	// RobustOn marks the vector as four-dimensional.
	RobustOn bool
}

// Minimized returns the vector in all-minimized form for the MOEA:
// (cost, -quality, shut-off), extended by the robustness score when the
// vector carries one. Disabled-robustness vectors keep the exact
// three-element form, so fronts at error rate 0 are bit-identical to
// pre-robustness runs.
func (v Vector) Minimized() []float64 {
	if v.RobustOn {
		return []float64{v.CostTotal, -v.TestQuality, v.ShutOffMS, v.RobustMS}
	}
	return []float64{v.CostTotal, -v.TestQuality, v.ShutOffMS}
}

// Costs breaks the monetary objective into its components.
type Costs struct {
	Hardware float64 // allocated resources
	BIST     float64 // BIST-capable variant surcharges
	Memory   float64 // permanent memory for stored BIST data
}

// Total returns the summed monetary cost.
func (c Costs) Total() float64 { return c.Hardware + c.BIST + c.Memory }

// MonetaryCosts prices an implementation: every allocated resource at
// its base cost, the BIST-capable surcharge for each ECU with a
// selected test task, and the per-resource memory price for stored BIST
// data. Section III-D: storing the encoded information at the central
// gateway is less costly because "the same encoded patterns can be used
// for different ECUs" — gateway-stored data tasks of the same profile
// (same CUT type, identical pattern set) are therefore priced once,
// while ECU-local storage is paid per ECU.
func MonetaryCosts(x *model.Implementation) Costs {
	sc := getScratch()
	alloc := fillAllocated(x, sc)
	sel, data := fillSelected(x, sc)
	c := monetaryCosts(x, alloc, sel, data, sc)
	putScratch(sc)
	return c
}

// monetaryCosts prices the implementation from pre-collected sorted
// views. Iteration stays in sorted orders throughout: floating-point
// accumulation must not depend on map iteration order, or identical
// implementations would score unequal costs between runs.
func monetaryCosts(x *model.Implementation, alloc []model.ResourceID, sel []bistSel, data []*model.Task, sc *evalScratch) Costs {
	var c Costs
	arch := x.Spec.Arch
	for _, r := range alloc {
		if res := arch.Resource(r); res != nil {
			c.Hardware += res.Cost
		}
	}
	for _, s := range sel {
		if res := arch.Resource(s.r); res != nil {
			c.BIST += res.BISTCost
		}
	}
	for _, t := range data {
		r := x.Binding[t.ID]
		if r == x.Spec.Gateway {
			sc.gwShared[t.Profile] = t.MemBytes // stored once per profile
			continue
		}
		if res := arch.Resource(r); res != nil {
			c.Memory += float64(t.MemBytes) / 1024 * res.MemCostPerKB
		}
	}
	if gw := arch.Resource(x.Spec.Gateway); gw != nil {
		for p := range sc.gwShared {
			sc.profiles = append(sc.profiles, p)
		}
		slices.Sort(sc.profiles)
		for _, p := range sc.profiles {
			c.Memory += float64(sc.gwShared[p]) / 1024 * gw.MemCostPerKB
		}
	}
	return c
}

// TestQuality implements Eq. (4): the summed coverage of the selected
// BIST test tasks divided by the number of allocated ECUs (the
// resources eligible for structural test). An implementation without
// allocated ECUs scores zero.
func TestQuality(x *model.Implementation) float64 {
	idx := indexOf(x.Spec)
	sc := getScratch()
	alloc := fillAllocated(x, sc)
	sel, _ := fillSelected(x, sc)
	fillUsed(x, sc.used)
	q := testQuality(idx, alloc, sel, sc.used)
	putScratch(sc)
	return q
}

func testQuality(idx *specIndex, alloc []model.ResourceID, sel []bistSel, used map[model.ResourceID]bool) float64 {
	ecus := 0
	for _, r := range alloc {
		if idx.isECU[r] && used[r] {
			ecus++
		}
	}
	if ecus == 0 {
		return 0
	}
	// sel is sorted by ECU ID — the same accumulation order as the
	// map-plus-sorted-keys code this replaces.
	sum := 0.0
	for _, s := range sel {
		sum += s.t.Coverage
	}
	return sum / float64(ecus)
}

// fillUsed marks every resource hosting at least one bound task — one
// pass over the bindings instead of one pass per allocated resource.
func fillUsed(x *model.Implementation, used map[model.ResourceID]bool) {
	for _, r := range x.Binding {
		used[r] = true
	}
}

// FunctionalFrames returns the CAN frame view of the functional
// messages sent by tasks bound to ECU r — the message set I of Eq. (1)
// whose mirrored bandwidth carries the test patterns.
func FunctionalFrames(x *model.Implementation, r model.ResourceID) []can.Frame {
	var frames []can.Frame
	for _, m := range x.Spec.App.Messages() {
		src := x.Spec.App.Task(m.Src)
		if src == nil || src.Kind != model.KindFunctional {
			continue
		}
		if x.Binding[m.Src] != r {
			continue
		}
		payload := int(m.SizeBytes)
		if payload > can.MaxPayload {
			payload = can.MaxPayload // long messages are segmented
		}
		frames = append(frames, can.Frame{
			ID:       string(m.ID),
			Priority: m.Priority,
			Payload:  payload,
			PeriodMS: m.PeriodMS,
		})
	}
	return frames
}

// transferBandwidth returns Σ s(c)/p(c) in bytes per millisecond for
// Eq. (1), using the full message payloads (segmentation preserves the
// long-run bandwidth of the mirrored slots). The walk over the indexed
// functional messages visits r's messages in the same order as the old
// full-message rescan, so the sum is bit-identical.
func transferBandwidth(x *model.Implementation, r model.ResourceID) float64 {
	idx := indexOf(x.Spec)
	bw := 0.0
	for _, fm := range idx.funcMsgs {
		if x.Binding[fm.src] == r {
			bw += fm.bw
		}
	}
	return bw
}

// TransferTimeMS evaluates Eq. (1) for the BIST data task bD serving
// ECU r: the time to ship s(b^D) bytes over the mirrored functional
// messages of r. +Inf when the ECU sends no functional messages.
func TransferTimeMS(x *model.Implementation, bD *model.Task, r model.ResourceID) float64 {
	bw := transferBandwidth(x, r)
	if bw <= 0 {
		return math.Inf(1)
	}
	return float64(bD.MemBytes) / bw
}

// ShutOffTimeMS implements Eq. (5): the maximum over all selected BIST
// sessions of the session runtime l(b^T), plus the pattern transfer
// time q when the BIST data task is stored away from the tested ECU. An
// implementation without BIST has shut-off time 0.
func ShutOffTimeMS(x *model.Implementation) float64 {
	idx := indexOf(x.Spec)
	sc := getScratch()
	sel, _ := fillSelected(x, sc)
	fillBandwidths(x, idx, sc.bw)
	worst := shutOffTimeMS(x, sel, sc.bw)
	putScratch(sc)
	return worst
}

func shutOffTimeMS(x *model.Implementation, sel []bistSel, bw map[model.ResourceID]float64) float64 {
	worst := 0.0
	for _, s := range sel {
		bD := x.Spec.DataTaskFor(s.t)
		t := s.t.WCETms
		if bD != nil {
			if dataRes, ok := x.Binding[bD.ID]; ok && dataRes != s.r {
				if b := bw[s.r]; b > 0 {
					t += float64(bD.MemBytes) / b
				} else {
					t = math.Inf(1)
				}
			}
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// Evaluate computes all three objectives, sharing one scratch checkout
// and the pre-collected sorted views across them.
func Evaluate(x *model.Implementation) Vector {
	idx := indexOf(x.Spec)
	sc := getScratch()
	alloc := fillAllocated(x, sc)
	sel, data := fillSelected(x, sc)
	fillUsed(x, sc.used)
	fillBandwidths(x, idx, sc.bw)
	v := Vector{
		CostTotal:   monetaryCosts(x, alloc, sel, data, sc).Total(),
		TestQuality: testQuality(idx, alloc, sel, sc.used),
		ShutOffMS:   shutOffTimeMS(x, sel, sc.bw),
	}
	putScratch(sc)
	return v
}
