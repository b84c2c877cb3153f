package fleet

import (
	"encoding/json"
	"sort"

	"repro/internal/dtc"
	"repro/internal/model"
)

// Summary is the fleet-level view served at /fleet/summary. It is
// computed from per-vehicle state and monotonic counters only — never
// from shard-local artifacts like ring-eviction interleavings — so a
// fixed seeded population produces byte-identical summaries at any
// shard or worker count.
type Summary struct {
	// Vehicles and Streams count the tracked vehicles and their
	// (vehicle, ECU) chunk streams.
	Vehicles int `json:"vehicles"`
	Streams  int `json:"streams"`

	// The ingest counters and live gauges, summed across shards.
	IngestStats

	// FailingVehicles counts vehicles whose latest session on at least
	// one ECU failed; FailingStreams the failing (vehicle, ECU) streams;
	// FailingECUs histograms them by ECU name — the fleet-wide answer to
	// "which ECU type is failing out there".
	FailingVehicles int            `json:"failing_vehicles"`
	FailingStreams  int            `json:"failing_streams"`
	FailingECUs     map[string]int `json:"failing_ecus"`

	// Repair compares the workshop cost of the fleet's current failures
	// under the DTC baseline vs. structural localization. Present only
	// when an Arch was attached.
	Repair *RepairRollup `json:"repair,omitempty"`
}

// RepairRollup is the fleet-wide repair-cost comparison of Section I:
// for every failing (vehicle, ECU) stream, the functional baseline
// presents the DTC ambiguity set while the structural fail data names
// the ECU directly.
type RepairRollup struct {
	// Codes is the number of trouble codes in the architectural context.
	Codes int `json:"codes"`
	// FailingECUs is the number of failing streams rolled up.
	FailingECUs int `json:"failing_ecus"`
	// StructuralReplacements is the units replaced with structural
	// localization: one per failing ECU.
	StructuralReplacements int `json:"structural_replacements"`
	// AvgDTCAmbiguity is the mean candidate-set size the DTC baseline
	// presents per failing ECU (over ECUs the codes can see at all).
	AvgDTCAmbiguity float64 `json:"avg_dtc_ambiguity"`
	// AvgFaultFreeDiscarded is the expected fault-free units replaced per
	// repair under replace-until-clear with uniformly random order:
	// (k−1)/2 for an ambiguity set of k.
	AvgFaultFreeDiscarded float64 `json:"avg_fault_free_discarded"`
	// FirstTryRate is the probability the first replaced unit is the
	// faulty one under the DTC baseline (structural localization is 1.0
	// by construction).
	FirstTryRate float64 `json:"first_try_rate"`
	// MissedByDTC counts failing ECUs no trouble code suspects — faults
	// only the structural BIST route surfaces.
	MissedByDTC int `json:"missed_by_dtc"`
}

// ECUStatus is one (vehicle, ECU) stream's state.
type ECUStatus struct {
	ECU          string `json:"ecu"`
	Sessions     uint32 `json:"sessions"`
	LastSession  uint32 `json:"last_session"`
	FailSessions uint32 `json:"fail_sessions"`
	Failing      bool   `json:"failing"`
	LastEntries  int    `json:"last_entries"`
	LastWindows  int    `json:"last_windows"`
}

// VehicleStatus is one vehicle's view served at /fleet/vehicle/{id}.
type VehicleStatus struct {
	Vehicle string      `json:"vehicle"`
	Failing bool        `json:"failing"`
	ECUs    []ECUStatus `json:"ecus"`
}

// FailingECU is one row of the /fleet/failing listing.
type FailingECU struct {
	Vehicle      string `json:"vehicle"`
	ECU          string `json:"ecu"`
	LastSession  uint32 `json:"last_session"`
	FailSessions uint32 `json:"fail_sessions"`
	LastEntries  int    `json:"last_entries"`
}

// vehicleSnapshot is one vehicle's state copied out under its shard's
// lock.
type vehicleSnapshot struct {
	vehicle string
	ecus    []ECUStatus
}

// snapshot copies the per-vehicle state of every shard, sorted by
// vehicle ID (and ECU within a vehicle) so downstream float
// accumulation is order-deterministic.
func (s *Server) snapshot() (vehicles []vehicleSnapshot, stats IngestStats) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		stats.add(sh.stats)
		stats.RecordsStored += sh.collector.Len()
		for id, vs := range sh.vehicles {
			snap := vehicleSnapshot{vehicle: id}
			for name, es := range vs.ecus {
				snap.ecus = append(snap.ecus, es.status(name))
			}
			sort.Slice(snap.ecus, func(i, j int) bool { return snap.ecus[i].ECU < snap.ecus[j].ECU })
			vehicles = append(vehicles, snap)
		}
		sh.mu.Unlock()
	}
	sort.Slice(vehicles, func(i, j int) bool { return vehicles[i].vehicle < vehicles[j].vehicle })
	return vehicles, stats
}

// Summary aggregates the fleet-level statistics.
func (s *Server) Summary() Summary {
	vehicles, stats := s.snapshot()
	sum := Summary{Vehicles: len(vehicles), IngestStats: stats, FailingECUs: make(map[string]int)}
	var failingStreams []ECUStatus
	for _, v := range vehicles {
		sum.Streams += len(v.ecus)
		failing := false
		for _, e := range v.ecus {
			if e.Failing {
				failing = true
				sum.FailingStreams++
				sum.FailingECUs[e.ECU]++
				failingStreams = append(failingStreams, e)
			}
		}
		if failing {
			sum.FailingVehicles++
		}
	}
	if s.arch != nil {
		sum.Repair = rollup(s.arch.Codes, failingStreams)
	}
	return sum
}

// rollup computes the DTC-vs-structural repair comparison over the
// failing streams, which arrive sorted by (vehicle, ECU) so the float
// sums accumulate in a fixed order.
func rollup(codes []dtc.TroubleCode, failing []ECUStatus) *RepairRollup {
	r := &RepairRollup{
		Codes:                  len(codes),
		FailingECUs:            len(failing),
		StructuralReplacements: len(failing),
	}
	seen := 0
	for _, e := range failing {
		triggered := dtc.TriggeredBy(codes, model.ResourceID(e.ECU))
		k := len(dtc.Candidates(codes, triggered))
		if k == 0 {
			r.MissedByDTC++
			continue
		}
		seen++
		r.AvgDTCAmbiguity += float64(k)
		r.AvgFaultFreeDiscarded += float64(k-1) / 2
		r.FirstTryRate += 1 / float64(k)
	}
	if seen > 0 {
		n := float64(seen)
		r.AvgDTCAmbiguity /= n
		r.AvgFaultFreeDiscarded /= n
		r.FirstTryRate /= n
	}
	return r
}

// SummaryJSON renders the summary as indented JSON. encoding/json
// sorts map keys, so equal summaries render to equal bytes.
func (s *Server) SummaryJSON() ([]byte, error) {
	return json.MarshalIndent(s.Summary(), "", "  ")
}

// Vehicle returns one vehicle's status.
func (s *Server) Vehicle(id string) (VehicleStatus, bool) {
	sh := s.shards[s.ShardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	vs := sh.vehicles[id]
	if vs == nil {
		return VehicleStatus{}, false
	}
	out := VehicleStatus{Vehicle: id}
	for name, es := range vs.ecus {
		out.Failing = out.Failing || es.Failing
		out.ECUs = append(out.ECUs, es.status(name))
	}
	sort.Slice(out.ECUs, func(i, j int) bool { return out.ECUs[i].ECU < out.ECUs[j].ECU })
	return out, true
}

// Failing lists the currently failing (vehicle, ECU) streams, sorted by
// (vehicle, ECU).
func (s *Server) Failing() []FailingECU {
	vehicles, _ := s.snapshot()
	var out []FailingECU
	for _, v := range vehicles {
		for _, e := range v.ecus {
			if e.Failing {
				out = append(out, FailingECU{
					Vehicle:      v.vehicle,
					ECU:          e.ECU,
					LastSession:  e.LastSession,
					FailSessions: e.FailSessions,
					LastEntries:  e.LastEntries,
				})
			}
		}
	}
	return out
}
