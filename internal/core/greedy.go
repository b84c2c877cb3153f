package core

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// GreedyDecoder is the high-throughput constructive decoder: instead of
// running the PB solver it interprets the genotype directly —
//
//   - one gene per mandatory task with several mapping options, selecting
//     the option index;
//   - one gene per ECU selecting "no BIST" or one of the available
//     profiles (Eq. 3a holds by construction);
//   - one gene per ECU selecting local vs gateway pattern storage
//     (Eq. 3b holds by construction);
//
// and routes every active message along the shortest architecture path.
// BIST is suppressed on ECUs that end up hosting no mandatory task,
// enforcing Eq. (2h). Every decode is feasible by construction; the
// ablation experiment A2 (DESIGN.md) compares it against SAT-decoding.
//
// NewGreedyDecoder compiles everything a decode derives from the
// specification into read-only tables (the decode plan), so Decode only
// reads genes and writes the implementation.
type GreedyDecoder struct {
	Spec *model.Specification

	// StorageChoice overrides the storage gene when non-zero:
	// +1 forces local storage, -1 forces gateway storage (ablation A1).
	StorageChoice int

	fixedTasks  []model.TaskID // mandatory tasks with exactly 1 option
	fixedTo     []int32        // their one mapping target, by resource index
	choiceTasks []model.TaskID // mandatory tasks with ≥2 options, one gene each
	choiceOpts  [][]target     // their mapping targets, sorted by ID

	ecus       []int32        // ECUs offering BIST, by resource index: a profile and a storage gene each
	fixedHosts []bool         // ecus[k] hosts a fixed mandatory task
	bist       [][]bistOption // per ECU, in BISTTasksForECU order

	// messages is App.Messages(); the plan refers to it by position.
	// mandatoryMsgs lists the messages with a mandatory sender, which are
	// active in every implementation; bistMsgs holds the outgoing
	// messages of every BIST option back to back.
	messages      []*model.Message
	mandatoryMsgs []int32
	bistMsgs      []int32

	// resources is Arch.Resources() by ID; resIdx is its inverse. The
	// shortest path from resource s to t is hops[lo:hi] and, by resource
	// index, hopIdx[lo:hi], where lo, hi = paths[s*n+t], paths[s*n+t+1];
	// an empty path means t is unreachable from s.
	resources []model.ResourceID
	resIdx    map[model.ResourceID]int32
	paths     []int32
	hops      []model.ResourceID
	hopIdx    []int32

	// bindHint and routeHint bound the entries of a decoded
	// implementation's Binding and Routing maps.
	bindHint, routeHint int
}

// target is a mapping target: its index in resources and its position
// in ecus (-1 for a resource offering no BIST).
type target struct {
	res, ecu int32
}

// bistOption is one profile gene value of an ECU: its test task, the
// paired data task (nil fails the decode that selects it), the resource
// index storing the data task for a local and for a gateway storage
// gene (the first mapping target when the preferred one is not a
// mapping option), and the outgoing messages of both tasks as
// bistMsgs[lo:hi].
type bistOption struct {
	test, data     *model.Task
	local, gateway int32
	lo, hi         int32
}

// NewGreedyDecoder compiles the gene layout and decode plan for the
// specification. Decode only reads them, so it is safe for concurrent
// use.
func NewGreedyDecoder(spec *model.Specification) (*GreedyDecoder, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec.WarmCaches()
	d := &GreedyDecoder{Spec: spec, messages: spec.App.Messages()}
	d.compilePaths()
	ecuPos := make(map[model.ResourceID]int32)
	var profiles [][]*model.Task
	for _, r := range spec.Arch.ResourcesOfKind(model.KindECU) {
		if bTs := spec.BISTTasksForECU(r.ID); len(bTs) > 0 {
			ecuPos[r.ID] = int32(len(d.ecus))
			d.ecus = append(d.ecus, d.resIdx[r.ID])
			profiles = append(profiles, bTs)
		}
	}
	targetOf := func(r model.ResourceID) target {
		t := target{res: d.resIdx[r], ecu: -1}
		if k, ok := ecuPos[r]; ok {
			t.ecu = k
		}
		return t
	}

	d.fixedHosts = make([]bool, len(d.ecus))
	for _, t := range spec.App.Tasks() {
		if t.Kind.Diagnostic() {
			continue
		}
		opts := spec.MappingTargets(t.ID)
		if len(opts) == 1 {
			to := targetOf(opts[0])
			d.fixedTasks = append(d.fixedTasks, t.ID)
			d.fixedTo = append(d.fixedTo, to.res)
			if to.ecu >= 0 {
				d.fixedHosts[to.ecu] = true
			}
			continue
		}
		ts := make([]target, len(opts))
		for i, r := range opts {
			ts[i] = targetOf(r)
		}
		d.choiceTasks = append(d.choiceTasks, t.ID)
		d.choiceOpts = append(d.choiceOpts, ts)
	}

	pos := make(map[model.MessageID]int32, len(d.messages))
	for i, m := range d.messages {
		pos[m.ID] = int32(i)
		if src := spec.App.Task(m.Src); src != nil && !src.Kind.Diagnostic() {
			d.mandatoryMsgs = append(d.mandatoryMsgs, int32(i))
		}
	}
	d.bindHint = len(d.fixedTasks) + len(d.choiceTasks) + 2*len(d.ecus)
	d.routeHint = len(d.mandatoryMsgs)
	storageFor := func(bD *model.Task, r model.ResourceID) int32 {
		if !spec.HasMapping(bD.ID, r) {
			r = spec.MappingTargets(bD.ID)[0]
		}
		return d.resIdx[r]
	}
	d.bist = make([][]bistOption, len(d.ecus))
	for k, ecu := range d.ecus {
		opts := make([]bistOption, len(profiles[k]))
		most := 0
		for j, bT := range profiles[k] {
			o := bistOption{test: bT, data: spec.DataTaskFor(bT), lo: int32(len(d.bistMsgs))}
			out := spec.App.Outgoing(bT.ID)
			if o.data != nil {
				o.local = storageFor(o.data, d.resources[ecu])
				o.gateway = storageFor(o.data, spec.Gateway)
				out = append(out, spec.App.Outgoing(o.data.ID)...)
			}
			for _, mid := range out {
				d.bistMsgs = append(d.bistMsgs, pos[mid])
			}
			o.hi = int32(len(d.bistMsgs))
			most = max(most, len(out))
			opts[j] = o
		}
		d.bist[k] = opts
		d.routeHint += most
	}
	d.mandatoryMsgs, d.bistMsgs = slices.Clone(d.mandatoryMsgs), slices.Clone(d.bistMsgs)
	return d, nil
}

// compilePaths indexes the resources densely and lays the shortest path
// between every ordered resource pair into the flat hop table. One
// breadth-first search per source visits neighbors in ID order and
// keeps each resource's first discoverer, as Arch.ShortestPath does; its
// early exit at the destination leaves the discoverers found before
// unchanged, so every path is the one ShortestPath returns.
func (d *GreedyDecoder) compilePaths() {
	arch := d.Spec.Arch
	n := arch.NumResources()
	d.resources = make([]model.ResourceID, n)
	d.resIdx = make(map[model.ResourceID]int32, n)
	for i, r := range arch.Resources() {
		d.resources[i] = r.ID
		d.resIdx[r.ID] = int32(i)
	}
	adj := make([][]int32, n)
	for i, r := range d.resources {
		for _, nb := range arch.Neighbors(r) {
			adj[i] = append(adj[i], d.resIdx[nb])
		}
	}
	prev := make([]int32, n)
	queue := make([]int32, 0, n)
	var rev []int32
	d.paths = make([]int32, 1, n*n+1)
	for src := range int32(n) {
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = src
		queue = append(queue[:0], src)
		for q := 0; q < len(queue); q++ {
			for _, nb := range adj[queue[q]] {
				if prev[nb] < 0 {
					prev[nb] = queue[q]
					queue = append(queue, nb)
				}
			}
		}
		for dst := range int32(n) {
			if prev[dst] >= 0 {
				rev = rev[:0]
				for at := dst; at != src; at = prev[at] {
					rev = append(rev, at)
				}
				rev = append(rev, src)
				for i := len(rev) - 1; i >= 0; i-- {
					d.hopIdx = append(d.hopIdx, rev[i])
					d.hops = append(d.hops, d.resources[rev[i]])
				}
			}
			d.paths = append(d.paths, int32(len(d.hops)))
		}
	}
	d.hops, d.hopIdx = slices.Clone(d.hops), slices.Clone(d.hopIdx)
}

// GenotypeLen implements Decoder: task-choice genes, then one profile
// gene and one storage gene per ECU.
func (d *GreedyDecoder) GenotypeLen() int {
	return len(d.choiceTasks) + 2*len(d.ecus)
}

// pick maps a gene in [0,1] onto {0, …, n−1}.
func pick(g float64, n int) int {
	if n <= 1 {
		return 0
	}
	i := int(g * float64(n))
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Decode implements Decoder.
func (d *GreedyDecoder) Decode(genotype []float64) (*model.Implementation, error) {
	if len(genotype) != d.GenotypeLen() {
		return nil, fmt.Errorf("core: genotype length %d, want %d", len(genotype), d.GenotypeLen())
	}
	x := &model.Implementation{
		Spec:       d.Spec,
		Allocation: make(map[model.ResourceID]bool, len(d.resources)),
		Binding:    make(map[model.TaskID]model.ResourceID, d.bindHint),
		Routing:    make(map[model.MessageID]map[model.TaskID]model.Route, d.routeHint),
	}
	// Allocation is collected densely and written once at the end. This
	// scratch, the host flags and the chosen options below live on the
	// stack for up to 64 entries.
	var allocBuf [64]bool
	alloc := allocBuf[:0]
	if n := len(d.resources); n <= len(allocBuf) {
		alloc = allocBuf[:n]
	} else {
		alloc = make([]bool, n)
	}
	bind := func(t model.TaskID, res int32) {
		x.Binding[t] = d.resources[res]
		alloc[res] = true
	}

	// Mandatory bindings, and which ECUs they occupy (Eq. 2h).
	var hostsBuf [64]bool
	hosts := append(hostsBuf[:0], d.fixedHosts...)
	for i, t := range d.fixedTasks {
		bind(t, d.fixedTo[i])
	}
	for i, t := range d.choiceTasks {
		opts := d.choiceOpts[i]
		to := opts[pick(genotype[i], len(opts))]
		bind(t, to.res)
		if to.ecu >= 0 {
			hosts[to.ecu] = true
		}
	}

	// BIST selection per ECU.
	var chosenBuf [64]*bistOption
	chosen := chosenBuf[:0]
	base := len(d.choiceTasks)
	for k, ecu := range d.ecus {
		opts := d.bist[k]
		sel := pick(genotype[base+2*k], len(opts)+1) // 0 = off
		if sel == 0 || !hosts[k] {
			continue
		}
		o := &opts[sel-1]
		if o.data == nil {
			return nil, fmt.Errorf("core: BIST task %s has no data task", o.test.ID)
		}
		bind(o.test.ID, ecu)
		storeLocal := genotype[base+2*k+1] < 0.5
		switch d.StorageChoice {
		case 1:
			storeLocal = true
		case -1:
			storeLocal = false
		}
		if storeLocal {
			bind(o.data.ID, o.local)
		} else {
			bind(o.data.ID, o.gateway)
		}
		chosen = append(chosen, o)
	}

	// Routing: shortest path per active message. On failure the lowest
	// message ID is reported, as a scan in ID order would.
	fail := -1
	var err error
	route := func(pos int32) {
		if e := d.route(x, alloc, d.messages[pos]); e != nil && (fail < 0 || int(pos) < fail) {
			fail, err = int(pos), e
		}
	}
	for _, pos := range d.mandatoryMsgs {
		route(pos)
	}
	for _, o := range chosen {
		for _, pos := range d.bistMsgs[o.lo:o.hi] {
			route(pos)
		}
	}
	if err != nil {
		return nil, err
	}
	for i, on := range alloc {
		if on {
			x.Allocation[d.resources[i]] = true
		}
	}
	return x, nil
}

// route sets msg's route to each bound receiver along the shortest path
// and marks the hops allocated. The routes share the hop table; the
// capped slices keep an append from writing into a neighbor.
func (d *GreedyDecoder) route(x *model.Implementation, alloc []bool, msg *model.Message) error {
	srcRes, ok := x.Binding[msg.Src]
	if !ok {
		return nil
	}
	row := int(d.resIdx[srcRes]) * len(d.resources)
	var per map[model.TaskID]model.Route
	for _, dst := range msg.Dst {
		dstRes, bound := x.Binding[dst]
		if !bound {
			continue
		}
		p := row + int(d.resIdx[dstRes])
		lo, hi := d.paths[p], d.paths[p+1]
		if lo == hi {
			return fmt.Errorf("core: no route for %s from %s to %s", msg.ID, srcRes, dstRes)
		}
		if per == nil {
			per = make(map[model.TaskID]model.Route, len(msg.Dst))
			x.Routing[msg.ID] = per
		}
		per[dst] = model.Route{Hops: d.hops[lo:hi:hi]}
		for _, h := range d.hopIdx[lo:hi] {
			alloc[h] = true
		}
	}
	return nil
}
