package model

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Specification is the complete design space exploration problem
// g_S(g_T, g_A, M): application graph, architecture graph, and the set
// of mapping edges.
type Specification struct {
	App  *ApplicationGraph
	Arch *ArchitectureGraph

	mappings []Mapping
	// byTask indexes the mapping options of each task; Index.Mappable
	// holds the tasks mappable onto each resource.
	byTask map[TaskID][]ResourceID
	mapSet map[Mapping]bool

	// Gateway is the resource that hosts the mandatory collection task
	// b^R and optionally centralized BIST data.
	Gateway ResourceID

	// index is the dense numbering Index returns; indexMu serializes
	// its rebuilds.
	index   atomic.Pointer[Index]
	indexMu sync.Mutex
}

// NewSpecification returns a specification over the given graphs.
func NewSpecification(app *ApplicationGraph, arch *ArchitectureGraph) *Specification {
	return &Specification{
		App:    app,
		Arch:   arch,
		byTask: make(map[TaskID][]ResourceID),
		mapSet: make(map[Mapping]bool),
	}
}

// AddMapping inserts the mapping edge m = (t, r) ∈ M. Both endpoints
// must exist; duplicates are rejected.
func (s *Specification) AddMapping(t TaskID, r ResourceID) error {
	if s.App.Task(t) == nil {
		return fmt.Errorf("model: mapping: unknown task %q", t)
	}
	if s.Arch.Resource(r) == nil {
		return fmt.Errorf("model: mapping: unknown resource %q", r)
	}
	m := Mapping{Task: t, Resource: r}
	if s.mapSet[m] {
		return fmt.Errorf("model: duplicate mapping %v", m)
	}
	s.mapSet[m] = true
	s.mappings = append(s.mappings, m)
	s.byTask[t] = append(s.byTask[t], r)
	return nil
}

// Mappings returns all mapping edges in insertion order.
func (s *Specification) Mappings() []Mapping { return s.mappings }

// MappingTargets returns the resources task t may be bound to, sorted.
func (s *Specification) MappingTargets(t TaskID) []ResourceID {
	out := append([]ResourceID(nil), s.byTask[t]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasMapping reports whether (t, r) ∈ M.
func (s *Specification) HasMapping(t TaskID, r ResourceID) bool {
	return s.mapSet[Mapping{Task: t, Resource: r}]
}

// Validate checks structural consistency of the specification:
//   - no task has a negative memory footprint;
//   - every mandatory (functional/collect) task has at least one mapping
//     option;
//   - every BIST test task b^T has exactly one mapping option (its own
//     ECU, the CUT it exercises);
//   - every BIST data task b^D has at least one option, and every option
//     is either the tested ECU or the gateway;
//   - message senders and receivers have mapping options whose resources
//     can be connected in g_A;
//   - the gateway is set and exists.
func (s *Specification) Validate() error {
	if s.Gateway == "" {
		return fmt.Errorf("model: specification has no gateway")
	}
	gw := s.Arch.Resource(s.Gateway)
	if gw == nil {
		return fmt.Errorf("model: gateway %q not in architecture", s.Gateway)
	}
	if gw.Kind != KindGateway {
		return fmt.Errorf("model: gateway %q has kind %v", s.Gateway, gw.Kind)
	}
	for _, t := range s.App.Tasks() {
		if t.MemBytes < 0 {
			return fmt.Errorf("model: task %q has negative memory footprint %d", t.ID, t.MemBytes)
		}
		opts := s.byTask[t.ID]
		switch t.Kind {
		case KindFunctional, KindCollect:
			if len(opts) == 0 {
				return fmt.Errorf("model: mandatory task %q has no mapping option", t.ID)
			}
		case KindBISTTest:
			if len(opts) != 1 {
				return fmt.Errorf("model: BIST test task %q must have exactly one mapping option, has %d", t.ID, len(opts))
			}
			if opts[0] != t.TestedECU {
				return fmt.Errorf("model: BIST test task %q maps to %q but tests %q", t.ID, opts[0], t.TestedECU)
			}
		case KindBISTData:
			if len(opts) == 0 {
				return fmt.Errorf("model: BIST data task %q has no mapping option", t.ID)
			}
			for _, r := range opts {
				if r != t.TestedECU && r != s.Gateway {
					return fmt.Errorf("model: BIST data task %q may only map to its ECU %q or the gateway, not %q", t.ID, t.TestedECU, r)
				}
			}
		}
	}
	// Every message endpoint pair must be connectable for at least one
	// combination of mapping options.
	ix := s.Index()
	for mi, m := range ix.Messages {
		srcOpts := ix.Targets[ix.Src[mi]]
		if len(srcOpts) == 0 {
			return fmt.Errorf("model: message %q: sender %q has no mapping option", m.ID, m.Src)
		}
		for j, dst := range ix.Dst[mi] {
			dstOpts := ix.Targets[dst]
			if len(dstOpts) == 0 {
				return fmt.Errorf("model: message %q: receiver %q has no mapping option", m.ID, m.Dst[j])
			}
			reachable := false
		search:
			for _, sr := range srcOpts {
				for _, dr := range dstOpts {
					if ix.Dist(sr, dr) >= 0 {
						reachable = true
						break search
					}
				}
			}
			if !reachable {
				return fmt.Errorf("model: message %q: no mapping combination connects %q to %q", m.ID, m.Src, m.Dst[j])
			}
		}
	}
	return nil
}

// BISTTasksForECU returns the BIST test tasks available for ECU r,
// sorted by profile number then ID.
func (s *Specification) BISTTasksForECU(r ResourceID) []*Task {
	var out []*Task
	for _, t := range s.App.TasksOfKind(KindBISTTest) {
		if t.TestedECU == r {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Profile != out[j].Profile {
			return out[i].Profile < out[j].Profile
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// DataTaskFor returns the BIST data task b^D paired with the given BIST
// test task b^T, i.e. the data task whose outgoing message is received
// by bT; of several, the one sending the lowest message ID. Returns nil
// if none exists. It scans the adjacency in place and allocates
// nothing, so the objectives may call it once per selected ECU.
func (s *Specification) DataTaskFor(bT *Task) *Task {
	if bT == nil || bT.Kind != KindBISTTest {
		return nil
	}
	var best *Task
	var bestID MessageID
	for _, mid := range s.App.incoming[bT.ID] {
		if best != nil && mid >= bestID {
			continue
		}
		if src := s.App.tasks[s.App.messages[mid].Src]; src != nil && src.Kind == KindBISTData {
			best, bestID = src, mid
		}
	}
	return best
}

// TestTaskFor returns the BIST test task b^T paired with the given data
// task b^D: the first test-task receiver of bD's lowest-ID message that
// has one. Returns nil if none exists. Like DataTaskFor it allocates
// nothing.
func (s *Specification) TestTaskFor(bD *Task) *Task {
	if bD == nil || bD.Kind != KindBISTData {
		return nil
	}
	var best *Task
	var bestID MessageID
	for _, mid := range s.App.outgoing[bD.ID] {
		if best != nil && mid >= bestID {
			continue
		}
		for _, d := range s.App.messages[mid].Dst {
			if t := s.App.tasks[d]; t != nil && t.Kind == KindBISTTest {
				best, bestID = t, mid
				break
			}
		}
	}
	return best
}
