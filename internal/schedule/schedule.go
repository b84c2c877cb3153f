// Package schedule plans the periodic application of BIST sessions
// across vehicle parking events (the paper's Section I: tests run
// during operational shut-off, and under AUTOSAR partial networking the
// shut-off window is bounded). Pattern transfers are resumable across
// events; the BIST session itself is atomic and must fit one window
// together with whatever transfer remains.
package schedule

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/objective"
)

// ECUPlan is the periodic-test plan of one ECU.
type ECUPlan struct {
	ECU     model.ResourceID
	Profile int
	// TransferMS is the total pattern transfer time (0 for local
	// storage), SessionMS the atomic session runtime.
	TransferMS float64
	SessionMS  float64
	// Events is the number of consecutive parking events needed to
	// complete one full test of this ECU; 0 when infeasible.
	Events int
	// Feasible is false when the session alone exceeds the window.
	Feasible bool
}

// Plan is the fleet-wide periodic test schedule.
type Plan struct {
	BudgetMS float64
	PerECU   []ECUPlan
	// LatencyEvents is the worst-case number of parking events between
	// a fault occurring and its detection (every ECU fully tested);
	// +Inf-like semantics are expressed by Complete == false.
	LatencyEvents int
	// Complete reports whether every selected BIST session is
	// schedulable within the window.
	Complete bool
}

// PeriodicTest derives the plan for an implementation under a
// per-parking-event shut-off budget.
//
// Per event an ECU may spend up to the full budget on pattern transfer;
// the session itself must run to completion within a single event, so
// the final event needs sessionMS plus the leftover transfer to fit
// the window. Local-storage sessions complete in one event iff
// sessionMS ≤ budget.
func PeriodicTest(x *model.Implementation, budgetMS float64) Plan {
	plan := Plan{BudgetMS: budgetMS, Complete: true}
	selected := x.SelectedBIST()
	var ecus []model.ResourceID
	for r := range selected {
		ecus = append(ecus, r)
	}
	sort.Slice(ecus, func(i, j int) bool { return ecus[i] < ecus[j] })
	for _, ecu := range ecus {
		bT := selected[ecu]
		p := ECUPlan{ECU: ecu, Profile: bT.Profile, SessionMS: bT.WCETms}
		if bD := x.Spec.DataTaskFor(bT); bD != nil {
			if storage, ok := x.Binding.Lookup(bD.ID); ok && storage != ecu {
				p.TransferMS = objective.TransferTimeMS(x, bD, ecu)
			}
		}
		p.Events, p.Feasible = eventsNeeded(p.TransferMS, p.SessionMS, budgetMS)
		if !p.Feasible {
			plan.Complete = false
		} else if p.Events > plan.LatencyEvents {
			plan.LatencyEvents = p.Events
		}
		plan.PerECU = append(plan.PerECU, p)
	}
	return plan
}

// eventsNeeded computes how many windows of length budget cover
// transfer (divisible) plus session (atomic, must share the last
// window with the remaining transfer).
func eventsNeeded(transferMS, sessionMS, budgetMS float64) (int, bool) {
	if budgetMS <= 0 || sessionMS > budgetMS || math.IsInf(transferMS, 1) {
		return 0, false
	}
	remaining := transferMS
	events := 0
	for {
		events++
		if remaining <= budgetMS-sessionMS {
			return events, true
		}
		remaining -= budgetMS
		if events > 1<<20 {
			return 0, false // pathological budget/transfer ratio
		}
	}
}

// Latency summarizes fault-detection latency in parking events for one
// ECU under continuously repeating test cycles of length Events: a
// fault is caught by the first test cycle that *starts* after the
// fault occurs (an in-flight cycle's patterns may already have passed
// the faulty logic), so with cycles back to back a fault at offset o
// within a cycle is detected 2·Events − 1 − o events later.
type Latency struct {
	ECU model.ResourceID
	// WorstEvents is the maximum detection latency (fault right at a
	// cycle start: the running cycle plus the full next one).
	WorstEvents int
	// ExpectedEvents is the mean over a uniformly random fault offset.
	ExpectedEvents float64
}

// DetectionLatencies derives per-ECU fault-detection latencies from a
// periodic test plan. Infeasible ECUs are omitted — they are never
// tested within this budget.
func DetectionLatencies(plan Plan) []Latency {
	var out []Latency
	for _, p := range plan.PerECU {
		if !p.Feasible || p.Events < 1 {
			continue
		}
		l := p.Events
		sum := 0
		for o := 0; o < l; o++ {
			sum += 2*l - 1 - o
		}
		out = append(out, Latency{
			ECU:            p.ECU,
			WorstEvents:    2*l - 1,
			ExpectedEvents: float64(sum) / float64(l),
		})
	}
	return out
}

// MinimumBudgetMS returns the smallest per-event budget under which the
// implementation completes within the given number of events, found by
// bisection over the plan (monotone in the budget). Returns +Inf when
// even an unbounded window cannot help (infinite transfer time).
func MinimumBudgetMS(x *model.Implementation, maxEvents int) float64 {
	if maxEvents < 1 {
		maxEvents = 1
	}
	feasibleAt := func(b float64) bool {
		p := PeriodicTest(x, b)
		return p.Complete && p.LatencyEvents <= maxEvents
	}
	hi := 1.0
	for ; hi < 1e12; hi *= 2 {
		if feasibleAt(hi) {
			break
		}
	}
	if hi >= 1e12 {
		return math.Inf(1)
	}
	lo := 0.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if feasibleAt(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
