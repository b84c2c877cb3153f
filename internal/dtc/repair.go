package dtc

import "repro/internal/model"

// RepairStats aggregates a workshop-repair study over every possible
// faulty ECU of an implementation.
type RepairStats struct {
	// Trials is the number of faulty-ECU scenarios evaluated.
	Trials int
	// AvgCandidates is the mean ambiguity-set size presented to the
	// workshop.
	AvgCandidates float64
	// AvgFaultFreeDiscarded is the expected number of fault-free units
	// replaced per repair (replace-until-clear over a uniformly random
	// candidate order).
	AvgFaultFreeDiscarded float64
	// FirstTryRate is the probability the first replaced unit is the
	// faulty one.
	FirstTryRate float64
	// UndetectedRate is the fraction of scenarios in which no symptom
	// is raised at all ("no trouble found" at system level).
	UndetectedRate float64
}

// FunctionalRepairStudy evaluates the DTC baseline: for each ECU
// hosting functional tasks, the triggered codes are intersected into a
// candidate set; functional tests detect the underlying hardware fault
// only with probability funcCoverage (the paper cites ~47 % structural
// coverage [2]).
//
// Expected values under replace-until-clear with uniformly random
// order over k candidates containing the faulty unit: candidates
// replaced before the faulty one = (k−1)/2, first-try rate = 1/k.
func FunctionalRepairStudy(x *model.Implementation, funcCoverage float64) RepairStats {
	codes := DeriveCodes(x)
	var stats RepairStats
	for _, e := range ecusWithFunctionalTasks(x) {
		stats.Trials++
		triggered := TriggeredBy(codes, e)
		cands := Candidates(codes, triggered)
		k := len(cands)
		if k == 0 {
			stats.UndetectedRate++
			continue
		}
		// The symptom only appears if a functional test exercises the
		// fault.
		stats.UndetectedRate += 1 - funcCoverage
		stats.AvgCandidates += float64(k)
		stats.AvgFaultFreeDiscarded += funcCoverage * float64(k-1) / 2
		stats.FirstTryRate += funcCoverage / float64(k)
	}
	return stats.normalize()
}

// BISTRepairStudy evaluates the paper's structural alternative: the
// fail data of the selected BIST session names the faulty ECU directly
// with probability c(b^T); otherwise the workshop falls back to the
// functional candidate set.
func BISTRepairStudy(x *model.Implementation, funcCoverage float64) RepairStats {
	codes := DeriveCodes(x)
	selected := x.SelectedBIST()
	var stats RepairStats
	for _, e := range ecusWithFunctionalTasks(x) {
		stats.Trials++
		cov := 0.0
		if bT, ok := selected[e]; ok {
			cov = bT.Coverage
		}
		triggered := TriggeredBy(codes, e)
		cands := Candidates(codes, triggered)
		k := len(cands)

		// BIST hit: exactly one unit replaced.
		stats.AvgCandidates += cov*1 + (1-cov)*float64(k)
		stats.FirstTryRate += cov
		if k > 0 {
			stats.AvgFaultFreeDiscarded += (1 - cov) * funcCoverage * float64(k-1) / 2
			stats.FirstTryRate += (1 - cov) * funcCoverage / float64(k)
			stats.UndetectedRate += (1 - cov) * (1 - funcCoverage)
		} else {
			stats.UndetectedRate += 1 - cov
		}
	}
	return stats.normalize()
}

func (s RepairStats) normalize() RepairStats {
	if s.Trials == 0 {
		return s
	}
	n := float64(s.Trials)
	s.AvgCandidates /= n
	s.AvgFaultFreeDiscarded /= n
	s.FirstTryRate /= n
	s.UndetectedRate /= n
	return s
}

func ecusWithFunctionalTasks(x *model.Implementation) []model.ResourceID {
	ix := x.Index()
	hosts := make([]bool, len(ix.Resources))
	for t, task := range ix.Tasks {
		if r := x.Binding.At(int32(t)); r >= 0 && task.Kind == model.KindFunctional && ix.Resources[r].Kind == model.KindECU {
			hosts[r] = true
		}
	}
	out := []model.ResourceID{}
	for r, on := range hosts {
		if on {
			out = append(out, ix.Resources[r].ID)
		}
	}
	return out
}
