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
	idx := indexOf(x)
	sc := getScratch(idx)
	fillBound(x, sc)
	c := monetaryCosts(x, idx, sc)
	putScratch(sc)
	return c
}

// monetaryCosts prices the implementation from the collected views.
// Iteration stays in position order — ID order — throughout, so the
// floating-point accumulation order is fixed and identical
// implementations score identical costs between runs. Gateway-stored
// data is summed by profile slot, ascending, which is ascending profile
// order; each slot is emptied as it is read.
func monetaryCosts(x *model.Implementation, idx *specIndex, sc *evalScratch) Costs {
	var c Costs
	ix := x.Index()
	for r, res := range ix.Resources {
		if x.Allocation.Has(int32(r)) {
			c.Hardware += res.Cost
		}
	}
	for _, s := range sc.sel {
		c.BIST += ix.Resources[s.r].BISTCost
	}
	for _, d := range sc.data {
		t, r := ix.Tasks[d], x.Binding.At(d)
		if r == ix.Gateway {
			sc.gwShared[idx.slot[d]] = t.MemBytes // stored once per profile
			continue
		}
		c.Memory += float64(t.MemBytes) / 1024 * ix.Resources[r].MemCostPerKB
	}
	if ix.Gateway >= 0 {
		gw := ix.Resources[ix.Gateway]
		for p, bytes := range sc.gwShared {
			if bytes >= 0 {
				c.Memory += float64(bytes) / 1024 * gw.MemCostPerKB
				sc.gwShared[p] = -1
			}
		}
	}
	return c
}

// TestQuality implements Eq. (4): the summed coverage of the selected
// BIST test tasks divided by the number of allocated ECUs (the
// resources eligible for structural test). An implementation without
// allocated ECUs scores zero.
func TestQuality(x *model.Implementation) float64 {
	idx := indexOf(x)
	sc := getScratch(idx)
	fillBound(x, sc)
	q := testQuality(x, idx, sc)
	putScratch(sc)
	return q
}

func testQuality(x *model.Implementation, idx *specIndex, sc *evalScratch) float64 {
	ecus := 0
	for r, ecu := range idx.isECU {
		if ecu && sc.used[r] && x.Allocation.Has(int32(r)) {
			ecus++
		}
	}
	if ecus == 0 {
		return 0
	}
	// sel is in ECU order, the accumulation order of the coverage sum.
	sum := 0.0
	for _, s := range sc.sel {
		sum += idx.ix.Tasks[s.t].Coverage
	}
	return sum / float64(ecus)
}

// transferBandwidth returns Σ s(c)/p(c) in bytes per millisecond for
// Eq. (1), using the full message payloads (segmentation preserves the
// long-run bandwidth of the mirrored slots). The walk over the indexed
// functional messages visits r's messages in message order, the order
// fillBandwidths accumulates them in, so the sums agree bit for bit.
func transferBandwidth(x *model.Implementation, r model.ResourceID) float64 {
	idx := indexOf(x)
	rp := idx.ix.ResourcePos(r)
	if rp < 0 {
		return 0
	}
	bw := 0.0
	for _, fm := range idx.funcMsgs {
		if x.Binding.At(fm.src) == rp {
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
	idx := indexOf(x)
	sc := getScratch(idx)
	fillBound(x, sc)
	fillBandwidths(x, idx, sc.bw)
	worst := shutOffTimeMS(x, sc)
	putScratch(sc)
	return worst
}

func shutOffTimeMS(x *model.Implementation, sc *evalScratch) float64 {
	ix := x.Index()
	worst := 0.0
	for _, s := range sc.sel {
		bT := ix.Tasks[s.t]
		t := bT.WCETms
		if bD := ix.Pair[s.t]; bD >= 0 {
			if dataRes := x.Binding.At(bD); dataRes >= 0 && dataRes != s.r {
				if b := sc.bw[s.r]; b > 0 {
					t += float64(ix.Tasks[bD].MemBytes) / b
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
// and one walk of the binding across them.
func Evaluate(x *model.Implementation) Vector {
	idx := indexOf(x)
	sc := getScratch(idx)
	fillBound(x, sc)
	fillBandwidths(x, idx, sc.bw)
	v := Vector{
		CostTotal:   monetaryCosts(x, idx, sc).Total(),
		TestQuality: testQuality(x, idx, sc),
		ShutOffMS:   shutOffTimeMS(x, sc),
	}
	putScratch(sc)
	return v
}
