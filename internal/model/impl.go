package model

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
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

// Binding is the binding B of an implementation: per task position
// of the specification's Index, the position of the resource the task
// is bound to, or -1 while it is unbound. Optional diagnosis tasks that
// are not selected stay unbound.
//
// A decode binds a small share of the tasks (about 71 of the case
// study's 1,126), so the binding also keeps the set of bound positions
// as a bitset, and every walk over the bound tasks visits that set
// instead of the whole row. Set keeps the two in step: the bitset is a
// function of the row alone.
type Binding struct {
	ix    *Index
	res   []int32
	bound []uint64 // bit t is set iff res[t] >= 0
}

// At returns the resource position task position t is bound to, or -1.
func (b Binding) At(t int32) int32 { return b.res[t] }

// Set binds task position t to resource position r; r = -1 unbinds.
func (b Binding) Set(t, r int32) {
	b.res[t] = r
	if r >= 0 {
		b.bound[t>>6] |= 1 << (t & 63)
	} else {
		b.bound[t>>6] &^= 1 << (t & 63)
	}
}

// Next returns the lowest bound task position at or after t, or -1 if
// there is none. The loop
//
//	for t := b.Next(0); t >= 0; t = b.Next(t + 1)
//
// visits the bound tasks in ascending position order, which is task ID
// order.
func (b Binding) Next(t int32) int32 {
	i := int(t >> 6)
	if i >= len(b.bound) {
		return -1
	}
	w := b.bound[i] &^ (1<<(t&63) - 1)
	for w == 0 {
		if i++; i == len(b.bound) {
			return -1
		}
		w = b.bound[i]
	}
	return int32(i<<6 + bits.TrailingZeros64(w))
}

// Lookup returns the resource task id is bound to and whether it is
// bound.
func (b Binding) Lookup(id TaskID) (ResourceID, bool) {
	if b.ix == nil {
		return "", false
	}
	if t := b.ix.TaskPos(id); t >= 0 && b.res[t] >= 0 {
		return b.ix.Resources[b.res[t]].ID, true
	}
	return "", false
}

// Get returns the resource task id is bound to, "" if it is unbound.
func (b Binding) Get(id TaskID) ResourceID {
	r, _ := b.Lookup(id)
	return r
}

// Len returns the number of bound tasks.
func (b Binding) Len() int { return onesCount(b.bound) }

func onesCount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Mappings returns the binding as the mapping edges it selects, one
// per bound task, in task ID order.
func (b Binding) Mappings() []Mapping {
	var out []Mapping
	for t := b.Next(0); t >= 0; t = b.Next(t + 1) {
		out = append(out, Mapping{Task: b.ix.Tasks[t].ID, Resource: b.ix.Resources[b.res[t]].ID})
	}
	return out
}

// MarshalJSON encodes the binding as the object {task: resource} with
// keys sorted, the encoding of the task-keyed map it replaces. Task
// positions follow task IDs, so a walk by position writes the keys in
// order.
func (b Binding) MarshalJSON() ([]byte, error) {
	if b.ix == nil {
		return []byte("null"), nil
	}
	buf := []byte{'{'}
	for _, m := range b.Mappings() {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = appendJSON(append(appendJSON(buf, m.Task), ':'), m.Resource)
	}
	return append(buf, '}'), nil
}

// Allocation is the allocation A of an implementation: a bitset over
// the resource positions of the specification's Index.
type Allocation struct {
	ix   *Index
	bits []uint64
}

// Has reports whether the resource at position r is allocated.
func (a Allocation) Has(r int32) bool { return a.bits[r>>6]&(1<<(r&63)) != 0 }

// Add allocates the resource at position r.
func (a Allocation) Add(r int32) { a.bits[r>>6] |= 1 << (r & 63) }

// Len returns the number of allocated resources.
func (a Allocation) Len() int { return onesCount(a.bits) }

// Contains reports whether resource id is allocated.
func (a Allocation) Contains(id ResourceID) bool {
	if a.ix == nil {
		return false
	}
	r := a.ix.ResourcePos(id)
	return r >= 0 && a.Has(r)
}

// MarshalJSON encodes the allocation as the object {resource: true}
// with keys sorted, the encoding of the resource-keyed set it replaces.
func (a Allocation) MarshalJSON() ([]byte, error) {
	if a.ix == nil {
		return []byte("null"), nil
	}
	buf := []byte{'{'}
	for r, res := range a.ix.Resources {
		if a.Has(int32(r)) {
			if len(buf) > 1 {
				buf = append(buf, ',')
			}
			buf = append(appendJSON(buf, res.ID), ":true"...)
		}
	}
	return append(buf, '}'), nil
}

// Implementation is one solution x = (A, B, W) of the design space
// exploration problem: the allocation A ⊆ R, the binding B ⊆ M, and for
// each bound communication c the routing W_c.
type Implementation struct {
	Spec *Specification

	// Allocation is the set of allocated resources A.
	Allocation Allocation

	// Binding assigns each bound task to exactly one resource.
	Binding Binding

	// Routing holds, per active message, one route per bound receiver.
	Routing Routing

	// borrowed marks a decoder's reused scratch; see Borrowed.
	borrowed bool
}

// NewImplementation returns an empty implementation for the given
// specification, numbered by its current Index.
func NewImplementation(spec *Specification) *Implementation {
	ix := spec.Index()
	x := &Implementation{Spec: spec, Binding: Binding{ix: ix, res: slices.Clone(ix.unbound)}}
	x.setWords(ix, make([]uint64, (len(ix.Resources)+63)/64+(len(ix.Tasks)+63)/64))
	return x
}

// setWords hands the allocation bitset and the binding's bound-task
// bitset their parts of words, one array holding the allocation's
// words first, so an implementation costs one allocation for both.
func (x *Implementation) setWords(ix *Index, words []uint64) {
	na := (len(ix.Resources) + 63) / 64
	x.Allocation = Allocation{ix: ix, bits: words[:na:na]}
	x.Binding.bound = words[na:]
}

// NewBorrowedImplementation returns an empty implementation that a
// decoder lends out and decodes into again: Borrowed reports true, so a
// caller knows to read it before the decoder's next decode and to Clone
// it to keep it.
func NewBorrowedImplementation(spec *Specification) *Implementation {
	x := NewImplementation(spec)
	x.borrowed = true
	return x
}

// Borrowed reports whether x is a decoder's scratch, valid only until
// that decoder's next decode on the same worker. Clone returns an owned
// copy.
func (x *Implementation) Borrowed() bool { return x.borrowed }

// Reset empties x in place, keeping its memory: every task unbound,
// nothing allocated, no routes. It unbinds only the bound tasks.
func (x *Implementation) Reset() {
	b := x.Binding
	for i, w := range b.bound {
		for ; w != 0; w &= w - 1 {
			b.res[i<<6+bits.TrailingZeros64(w)] = -1
		}
	}
	clear(b.bound)
	clear(x.Allocation.bits)
	x.Routing = x.Routing[:0]
}

// Index returns the numbering the implementation's binding and
// allocation positions refer to.
func (x *Implementation) Index() *Index { return x.Binding.ix }

// Bind binds task t to resource r and allocates r. Both must exist in
// the specification.
func (x *Implementation) Bind(t TaskID, r ResourceID) {
	tp, rp := x.Binding.ix.TaskPos(t), x.Binding.ix.ResourcePos(r)
	if tp < 0 || rp < 0 {
		panic(fmt.Sprintf("model: Bind(%q, %q): unknown task or resource", t, r))
	}
	x.Binding.Set(tp, rp)
	x.Allocation.Add(rp)
}

// Unbind removes task t's binding, leaving the allocation as it is.
func (x *Implementation) Unbind(t TaskID) {
	if tp := x.Binding.ix.TaskPos(t); tp >= 0 {
		x.Binding.Set(tp, -1)
	}
}

// SetRoute records the route of message m towards destination task dst,
// replacing an earlier route of the pair, and allocates every hop that
// names a resource of the specification.
func (x *Implementation) SetRoute(m MessageID, dst TaskID, route Route) {
	if i := x.routeIndex(m, dst); i >= 0 {
		x.Routing[i].Route = route
	} else {
		x.Routing = append(x.Routing, RouteEntry{Msg: m, Dst: dst, Route: route})
	}
	for _, h := range route.Hops {
		if r := x.Allocation.ix.ResourcePos(h); r >= 0 {
			x.Allocation.Add(r)
		}
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
	_, ok := x.Binding.Lookup(t)
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
	out := make([]ResourceID, 0, x.Allocation.Len())
	for r, res := range x.Allocation.ix.Resources {
		if x.Allocation.Has(int32(r)) {
			out = append(out, res.ID)
		}
	}
	return out
}

// SelectedBIST returns the selected BIST test task of each ECU, keyed
// by ECU ID; ECUs without a selected test are absent. Of several tests
// on one ECU (which Check rejects), the one with the highest task ID.
// Sort the keys to visit the ECUs in a fixed order.
func (x *Implementation) SelectedBIST() map[ResourceID]*Task {
	b := x.Binding
	out := make(map[ResourceID]*Task)
	for t := b.Next(0); t >= 0; t = b.Next(t + 1) {
		if b.ix.Kind[t] == KindBISTTest {
			out[b.ix.Resources[b.res[t]].ID] = b.ix.Tasks[t]
		}
	}
	return out
}

// MemoryUse returns the permanent memory in bytes occupied on each
// allocated resource by the bound tasks.
func (x *Implementation) MemoryUse() map[ResourceID]int64 {
	b := x.Binding
	out := make(map[ResourceID]int64)
	for t := b.Next(0); t >= 0; t = b.Next(t + 1) {
		out[b.ix.Resources[b.res[t]].ID] += b.ix.Tasks[t].MemBytes
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
	spec, ix := x.Spec, x.Binding.ix

	// Eq. 2h needs to know which resources host a mandatory task.
	hostsMandatory := make([]bool, len(ix.Resources))
	testsPerECU := make([]int, len(ix.Resources))
	for tp, t := range ix.Tasks {
		r := x.Binding.At(int32(tp))
		if r < 0 {
			if !t.Kind.Diagnostic() {
				fail("binding", "mandatory task %q is unbound", t.ID)
			}
			continue
		}
		rid := ix.Resources[r].ID
		if !spec.HasMapping(t.ID, rid) {
			fail("binding", "task %q bound to %q without mapping edge", t.ID, rid)
		}
		if !x.Allocation.Has(r) {
			fail("allocation", "task %q bound to unallocated resource %q", t.ID, rid)
		}
		if !t.Kind.Diagnostic() {
			hostsMandatory[r] = true
		}
		if t.Kind == KindBISTTest {
			testsPerECU[r]++
		}
	}

	// Eq. 2h: no resource allocated solely for diagnosis.
	for tp, t := range ix.Tasks {
		if r := x.Binding.At(int32(tp)); r >= 0 && t.Kind.Diagnostic() && !hostsMandatory[r] {
			fail("2h", "diagnosis task %q bound to %q which hosts no mandatory task", t.ID, ix.Resources[r].ID)
		}
	}

	// Eq. 3a: at most one BIST test task per ECU.
	for r, n := range testsPerECU {
		if n > 1 {
			fail("3a", "resource %q has %d BIST test tasks selected", ix.Resources[r].ID, n)
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
		srcRes := x.Binding.Get(m.Src)
		for _, dst := range m.Dst {
			dstRes, bound := x.Binding.Lookup(dst)
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
				if !x.Allocation.Contains(h) {
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
	used := x.MemoryUse()
	for _, res := range ix.Resources {
		if res.MemCapBytes > 0 && used[res.ID] > res.MemCapBytes {
			fail("memory", "resource %q uses %d bytes of %d capacity", res.ID, used[res.ID], res.MemCapBytes)
		}
	}
	return errs
}

// Feasible reports whether Check finds no violation.
func (x *Implementation) Feasible() bool { return len(x.Check()) == 0 }

// Clone returns an owned deep copy of the implementation (sharing the
// specification).
func (x *Implementation) Clone() *Implementation {
	c := *x
	c.borrowed = false
	c.Binding.res = slices.Clone(x.Binding.res)
	words := make([]uint64, len(x.Allocation.bits)+len(x.Binding.bound))
	copy(words[copy(words, x.Allocation.bits):], x.Binding.bound)
	c.setWords(x.Binding.ix, words)
	if x.Routing != nil {
		c.Routing = make(Routing, len(x.Routing))
		for i, e := range x.Routing {
			e.Route.Hops = slices.Clone(e.Route.Hops)
			c.Routing[i] = e
		}
	}
	return &c
}
