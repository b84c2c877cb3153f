// Package dtc models today's functional diagnosis baseline that the
// paper's Section I argues against: functional tests yield pass/fail
// diagnostic trouble codes (DTCs, SAE J1979) per application, each with
// an ambiguity set of suspect ECUs. A workshop replaces candidates from
// that set until the symptom clears, discarding fault-free units along
// the way — the repair-cost problem structural BIST removes by naming
// the faulty ECU directly.
package dtc

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// TroubleCode is one functional-test observable: an end-to-end check
// of a functional application with the set of ECUs that can make it
// fail.
type TroubleCode struct {
	Code     string
	Suspects []model.ResourceID // ECUs hosting tasks of the application
}

// DeriveCodes derives one trouble code per functional application of
// the implementation. Applications are the connected components of the
// functional task graph; the suspects of a code are the ECUs its tasks
// are bound to (sensors and actuators are assumed individually
// testable and excluded).
func DeriveCodes(x *model.Implementation) []TroubleCode {
	spec := x.Spec
	// Union-find over functional tasks connected by messages.
	parent := make(map[model.TaskID]model.TaskID)
	var find func(t model.TaskID) model.TaskID
	find = func(t model.TaskID) model.TaskID {
		if parent[t] == t {
			return t
		}
		parent[t] = find(parent[t])
		return parent[t]
	}
	union := func(a, b model.TaskID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	isFunctional := func(t model.TaskID) bool {
		task := spec.App.Task(t)
		return task != nil && task.Kind == model.KindFunctional
	}
	for _, t := range spec.App.TasksOfKind(model.KindFunctional) {
		parent[t.ID] = t.ID
	}
	for _, m := range spec.App.Messages() {
		if !isFunctional(m.Src) {
			continue
		}
		for _, d := range m.Dst {
			if isFunctional(d) {
				union(m.Src, d)
			}
		}
	}
	// Collect component -> ECU suspects.
	suspects := make(map[model.TaskID]map[model.ResourceID]bool)
	ix := x.Index()
	for tp, t := range ix.Tasks {
		rp := x.Binding.At(int32(tp))
		if t.Kind != model.KindFunctional || rp < 0 || ix.Resources[rp].Kind != model.KindECU {
			continue
		}
		r := ix.Resources[rp].ID
		root := find(t.ID)
		if suspects[root] == nil {
			suspects[root] = make(map[model.ResourceID]bool)
		}
		suspects[root][r] = true
	}
	roots := make([]model.TaskID, 0, len(suspects))
	for root := range suspects {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	var out []TroubleCode
	for i, root := range roots {
		set := suspects[root]
		ecus := make([]model.ResourceID, 0, len(set))
		for r := range set {
			ecus = append(ecus, r)
		}
		sort.Slice(ecus, func(a, b int) bool { return ecus[a] < ecus[b] })
		out = append(out, TroubleCode{Code: fmt.Sprintf("P%04d", i+1), Suspects: ecus})
	}
	return out
}

// Candidates intersects the ambiguity sets of the triggered codes: the
// ECUs consistent with every observed symptom. An empty intersection
// degrades to the union (contradictory symptoms — replace everything
// suspected).
func Candidates(codes []TroubleCode, triggered []string) []model.ResourceID {
	trig := make(map[string]bool, len(triggered))
	for _, c := range triggered {
		trig[c] = true
	}
	var sets [][]model.ResourceID
	for _, code := range codes {
		if trig[code.Code] {
			sets = append(sets, code.Suspects)
		}
	}
	if len(sets) == 0 {
		return nil
	}
	count := make(map[model.ResourceID]int)
	for _, s := range sets {
		for _, r := range s {
			count[r]++
		}
	}
	var inter, union []model.ResourceID
	for r, n := range count {
		union = append(union, r)
		if n == len(sets) {
			inter = append(inter, r)
		}
	}
	out := inter
	if len(out) == 0 {
		out = union
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TriggeredBy returns the codes a fault in ECU e would raise: every
// application with a task on e. Detection of the symptom itself is
// further gated by the functional tests' limited structural coverage —
// callers apply that separately.
func TriggeredBy(codes []TroubleCode, e model.ResourceID) []string {
	var out []string
	for _, c := range codes {
		for _, s := range c.Suspects {
			if s == e {
				out = append(out, c.Code)
				break
			}
		}
	}
	return out
}
