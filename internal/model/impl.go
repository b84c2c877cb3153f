package model

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Route is the ordered resource path W_c over which a message is
// routed, starting at the resource of the sending task and ending at the
// resource of (each) receiving task. On a bus topology the path
// typically reads ECU → bus → ECU or ECU → bus → gateway → bus → ECU.
type Route struct {
	Hops []ResourceID
}

// Contains reports whether the route crosses resource r.
func (rt Route) Contains(r ResourceID) bool {
	for _, h := range rt.Hops {
		if h == r {
			return true
		}
	}
	return false
}

// Buses returns the bus resources the route crosses, in order, using the
// architecture graph to classify hops.
func (rt Route) Buses(arch *ArchitectureGraph) []ResourceID {
	var out []ResourceID
	for _, h := range rt.Hops {
		if res := arch.Resource(h); res != nil && res.Kind == KindBus {
			out = append(out, h)
		}
	}
	return out
}

// String renders the route as "a->b->c".
func (rt Route) String() string {
	parts := make([]string, len(rt.Hops))
	for i, h := range rt.Hops {
		parts[i] = string(h)
	}
	return strings.Join(parts, "->")
}

// RouteEntry is the route of message Msg towards destination task Dst.
type RouteEntry struct {
	Msg   MessageID
	Dst   TaskID
	Route Route
}

// Routing is the routing W of an implementation: one entry per active
// message and bound receiver, in the order the decoder produced them.
// A flat list costs a decode one append per route instead of one map
// per message; lookups go through Implementation.RouteTo.
type Routing []RouteEntry

// MarshalJSON encodes the routing as the nested object
// {message: {destination: route}} with keys sorted, the encoding of
// the message-keyed map of destination-keyed maps it replaces, so
// serialized implementations do not depend on the entry order. A
// repeated (message, destination) pair encodes its first entry, the
// one RouteTo returns (Check flags the repetition).
func (w Routing) MarshalJSON() ([]byte, error) {
	es := slices.Clone(w)
	slices.SortStableFunc(es, func(a, b RouteEntry) int {
		return cmp.Or(cmp.Compare(a.Msg, b.Msg), cmp.Compare(a.Dst, b.Dst))
	})
	buf := []byte{'{'}
	for i, e := range es {
		switch {
		case i == 0:
			buf = append(appendJSON(buf, e.Msg), ':', '{')
		case es[i-1].Msg != e.Msg:
			buf = append(appendJSON(append(buf, '}', ','), e.Msg), ':', '{')
		case es[i-1].Dst == e.Dst:
			continue
		default:
			buf = append(buf, ',')
		}
		buf = appendJSON(append(appendJSON(buf, e.Dst), ':'), e.Route)
	}
	if len(es) > 0 {
		buf = append(buf, '}')
	}
	return append(buf, '}'), nil
}

// appendJSON appends the JSON encoding of v, a string-kinded ID or a
// Route, neither of which can fail to encode.
func appendJSON(buf []byte, v any) []byte {
	b, _ := json.Marshal(v)
	return append(buf, b...)
}

// Implementation is one solution x = (A, B, W) of the design space
// exploration problem: the allocation A ⊆ R, the binding B ⊆ M, and for
// each bound communication c the routing W_c.
type Implementation struct {
	Spec *Specification

	// Allocation is the set of allocated resources A.
	Allocation map[ResourceID]bool

	// Binding assigns each bound task to exactly one resource. Optional
	// diagnosis tasks that are not selected are absent.
	Binding map[TaskID]ResourceID

	// Routing holds, per active message, one route per bound receiver.
	Routing Routing
}

// NewImplementation returns an empty implementation for the given
// specification.
func NewImplementation(spec *Specification) *Implementation {
	return &Implementation{
		Spec:       spec,
		Allocation: make(map[ResourceID]bool),
		Binding:    make(map[TaskID]ResourceID),
	}
}

// Bind binds task t to resource r and allocates r.
func (x *Implementation) Bind(t TaskID, r ResourceID) {
	x.Binding[t] = r
	x.Allocation[r] = true
}

// SetRoute records the route of message m towards destination task dst,
// replacing an earlier route of the pair, and allocates every hop.
func (x *Implementation) SetRoute(m MessageID, dst TaskID, route Route) {
	if i := x.routeIndex(m, dst); i >= 0 {
		x.Routing[i].Route = route
	} else {
		x.Routing = append(x.Routing, RouteEntry{Msg: m, Dst: dst, Route: route})
	}
	for _, h := range route.Hops {
		x.Allocation[h] = true
	}
}

// RouteTo returns the route of message m towards destination task dst.
func (x *Implementation) RouteTo(m MessageID, dst TaskID) (Route, bool) {
	if i := x.routeIndex(m, dst); i >= 0 {
		return x.Routing[i].Route, true
	}
	return Route{}, false
}

func (x *Implementation) routeIndex(m MessageID, dst TaskID) int {
	for i, e := range x.Routing {
		if e.Msg == m && e.Dst == dst {
			return i
		}
	}
	return -1
}

// Bound reports whether task t is bound.
func (x *Implementation) Bound(t TaskID) bool {
	_, ok := x.Binding[t]
	return ok
}

// Active reports whether message m is active, i.e. its sender is bound.
func (x *Implementation) Active(m MessageID) bool {
	msg := x.Spec.App.Message(m)
	if msg == nil {
		return false
	}
	return x.Bound(msg.Src)
}

// AllocatedResources returns the allocated resources sorted by ID.
func (x *Implementation) AllocatedResources() []ResourceID {
	out := make([]ResourceID, 0, len(x.Allocation))
	for r, on := range x.Allocation {
		if on {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SelectedBIST returns, per ECU, the selected BIST test task, sorted by
// ECU ID. ECUs without a selected test are absent.
func (x *Implementation) SelectedBIST() map[ResourceID]*Task {
	out := make(map[ResourceID]*Task)
	for tid, r := range x.Binding {
		t := x.Spec.App.Task(tid)
		if t != nil && t.Kind == KindBISTTest {
			out[r] = t
		}
	}
	return out
}

// MemoryUse returns the permanent memory in bytes occupied on each
// allocated resource by the bound tasks.
func (x *Implementation) MemoryUse() map[ResourceID]int64 {
	out := make(map[ResourceID]int64)
	for tid, r := range x.Binding {
		t := x.Spec.App.Task(tid)
		if t != nil {
			out[r] += t.MemBytes
		}
	}
	return out
}

// CheckError describes a structural violation found by Check.
type CheckError struct {
	Rule string // short rule identifier, e.g. "binding", "route-adjacency"
	Msg  string
}

func (e *CheckError) Error() string { return "model: " + e.Rule + ": " + e.Msg }

// Check verifies the structural feasibility of the implementation
// against its specification:
//
//   - every mandatory task is bound, to a resource of one of its mapping
//     edges; optional diagnostic tasks are bound at most once (Eq. 2a);
//   - every route entry belongs to an active message and leads to one
//     of its bound receivers, at most once per receiver;
//   - every active message has a route per bound receiver, the route
//     starts at the sender's resource (Eq. 2b), ends at the receiver's
//     resource (Eq. 2c), is cycle-free (Eq. 2d), and follows adjacent
//     resources (Eq. 2g);
//   - a diagnosis task is only bound to a resource that also hosts a
//     mandatory task (Eq. 2h);
//   - per ECU at most one BIST test task is selected (Eq. 3a);
//   - b^D is bound iff its b^T is bound (Eq. 3b);
//   - memory capacities are respected.
func (x *Implementation) Check() []error {
	var errs []error
	fail := func(rule, format string, args ...interface{}) {
		errs = append(errs, &CheckError{Rule: rule, Msg: fmt.Sprintf(format, args...)})
	}
	spec := x.Spec

	for _, t := range spec.App.Tasks() {
		r, bound := x.Binding[t.ID]
		if !bound {
			if !t.Kind.Diagnostic() {
				fail("binding", "mandatory task %q is unbound", t.ID)
			}
			continue
		}
		if !spec.HasMapping(t.ID, r) {
			fail("binding", "task %q bound to %q without mapping edge", t.ID, r)
		}
		if !x.Allocation[r] {
			fail("allocation", "task %q bound to unallocated resource %q", t.ID, r)
		}
	}

	// Eq. 2h: no resource allocated solely for diagnosis.
	hostsMandatory := make(map[ResourceID]bool)
	for tid, r := range x.Binding {
		if t := spec.App.Task(tid); t != nil && !t.Kind.Diagnostic() {
			hostsMandatory[r] = true
		}
	}
	for tid, r := range x.Binding {
		t := spec.App.Task(tid)
		if t != nil && t.Kind.Diagnostic() && !hostsMandatory[r] {
			fail("2h", "diagnosis task %q bound to %q which hosts no mandatory task", tid, r)
		}
	}

	// Eq. 3a: at most one BIST test task per ECU.
	testsPerECU := make(map[ResourceID]int)
	for tid, r := range x.Binding {
		if t := spec.App.Task(tid); t != nil && t.Kind == KindBISTTest {
			testsPerECU[r]++
		}
	}
	for r, n := range testsPerECU {
		if n > 1 {
			fail("3a", "resource %q has %d BIST test tasks selected", r, n)
		}
	}

	// Eq. 3b: b^D bound iff b^T bound.
	for _, bD := range spec.App.TasksOfKind(KindBISTData) {
		bT := spec.TestTaskFor(bD)
		if bT == nil {
			fail("3b", "data task %q has no paired test task", bD.ID)
			continue
		}
		if x.Bound(bD.ID) != x.Bound(bT.ID) {
			fail("3b", "data task %q bound=%v but test task %q bound=%v",
				bD.ID, x.Bound(bD.ID), bT.ID, x.Bound(bT.ID))
		}
	}

	// Route entries: each belongs to an active message, leads to one of
	// its bound receivers, and is the only entry of its pair.
	type pair struct {
		m MessageID
		d TaskID
	}
	routes := make(map[pair]Route, len(x.Routing))
	for _, e := range x.Routing {
		switch m := spec.App.Message(e.Msg); {
		case m == nil || !x.Bound(m.Src):
			fail("route-entry", "inactive message %q has a route to %q", e.Msg, e.Dst)
		case !slices.Contains(m.Dst, e.Dst):
			fail("route-entry", "message %q routed to %q, which is not a receiver", e.Msg, e.Dst)
		case !x.Bound(e.Dst):
			fail("route-entry", "message %q routed to unbound receiver %q", e.Msg, e.Dst)
		}
		k := pair{e.Msg, e.Dst}
		if _, dup := routes[k]; dup {
			fail("route-entry", "message %q has two routes to %q", e.Msg, e.Dst)
			continue
		}
		routes[k] = e.Route
	}

	// Routing checks.
	for _, m := range spec.App.Messages() {
		if !x.Active(m.ID) {
			continue
		}
		srcRes := x.Binding[m.Src]
		for _, dst := range m.Dst {
			dstRes, bound := x.Binding[dst]
			if !bound {
				// A receiver that is an unbound optional task needs no route.
				if t := spec.App.Task(dst); t != nil && t.Kind.Diagnostic() {
					continue
				}
				fail("routing", "message %q: receiver %q unbound", m.ID, dst)
				continue
			}
			rt, ok := routes[pair{m.ID, dst}]
			if !ok {
				fail("routing", "active message %q has no route to %q", m.ID, dst)
				continue
			}
			if len(rt.Hops) == 0 {
				fail("routing", "message %q: empty route to %q", m.ID, dst)
				continue
			}
			if rt.Hops[0] != srcRes {
				fail("2b", "message %q: route starts at %q, sender bound to %q", m.ID, rt.Hops[0], srcRes)
			}
			if rt.Hops[len(rt.Hops)-1] != dstRes {
				fail("2c", "message %q: route ends at %q, receiver bound to %q", m.ID, rt.Hops[len(rt.Hops)-1], dstRes)
			}
			seen := make(map[ResourceID]bool, len(rt.Hops))
			for _, h := range rt.Hops {
				if seen[h] {
					fail("2d", "message %q: route to %q revisits %q", m.ID, dst, h)
				}
				seen[h] = true
				if !x.Allocation[h] {
					fail("allocation", "message %q routed over unallocated %q", m.ID, h)
				}
			}
			for i := 1; i < len(rt.Hops); i++ {
				if !spec.Arch.Adjacent(rt.Hops[i-1], rt.Hops[i]) {
					fail("2g", "message %q: hops %q and %q not adjacent", m.ID, rt.Hops[i-1], rt.Hops[i])
				}
			}
		}
	}

	// Memory capacities.
	for r, used := range x.MemoryUse() {
		res := spec.Arch.Resource(r)
		if res != nil && res.MemCapBytes > 0 && used > res.MemCapBytes {
			fail("memory", "resource %q uses %d bytes of %d capacity", r, used, res.MemCapBytes)
		}
	}
	return errs
}

// Feasible reports whether Check finds no violation.
func (x *Implementation) Feasible() bool { return len(x.Check()) == 0 }

// Clone returns a deep copy of the implementation (sharing the
// specification).
func (x *Implementation) Clone() *Implementation {
	c := NewImplementation(x.Spec)
	for r, on := range x.Allocation {
		c.Allocation[r] = on
	}
	for t, r := range x.Binding {
		c.Binding[t] = r
	}
	if x.Routing != nil {
		c.Routing = make(Routing, len(x.Routing))
		for i, e := range x.Routing {
			e.Route.Hops = slices.Clone(e.Route.Hops)
			c.Routing[i] = e
		}
	}
	return c
}
