package core

import (
	"fmt"
	"slices"
	"sync"

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

	// ix is the specification's Index: the plan below refers to tasks,
	// messages and resources by their positions in it.
	ix *model.Index

	fixedTasks  []int32    // mandatory tasks with exactly 1 option
	fixedTo     []int32    // their one mapping target
	choiceTasks []int32    // mandatory tasks with ≥2 options, one gene each
	choiceOpts  [][]target // their mapping targets, sorted by ID

	ecus       []int32        // ECUs offering BIST: a profile and a storage gene each
	fixedHosts []bool         // ecus[k] hosts a fixed mandatory task
	bist       [][]bistOption // per ECU, in BISTTasksForECU order

	// mandatoryMsgs lists the messages with a mandatory sender, which are
	// active in every implementation; bistMsgs holds the outgoing
	// messages of every BIST option back to back.
	mandatoryMsgs []int32
	bistMsgs      []int32

	// routeHint bounds the entries of a decoded implementation's Routing
	// list.
	routeHint int

	// scratch holds one sync.Pool per evaluation-pool worker index, each
	// keeping that worker's borrowed implementation (see DecodeWorker).
	// The pools hold it weakly: GC cycles without a decode release it, so
	// an idle decoder retains no implementations.
	scratch workerSlots[sync.Pool]
}

// target is a mapping target: its resource position and its position
// in ecus (-1 for a resource offering no BIST).
type target struct {
	res, ecu int32
}

// bistOption is one profile gene value of an ECU: the positions of its
// test task and of the paired data task (-1 fails the decode that
// selects it), the resource storing the data task for a local and for a
// gateway storage gene (the first mapping target when the preferred one
// is not a mapping option), and the outgoing messages of both tasks as
// bistMsgs[lo:hi].
type bistOption struct {
	test, data     int32
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
	ix := spec.Index()
	d := &GreedyDecoder{Spec: spec, ix: ix}
	ecuPos := make([]int32, len(ix.Resources))
	for i := range ecuPos {
		ecuPos[i] = -1
	}
	var profiles [][]*model.Task
	for _, r := range spec.Arch.ResourcesOfKind(model.KindECU) {
		if bTs := spec.BISTTasksForECU(r.ID); len(bTs) > 0 {
			rp := ix.ResourcePos(r.ID)
			ecuPos[rp] = int32(len(d.ecus))
			d.ecus = append(d.ecus, rp)
			profiles = append(profiles, bTs)
		}
	}

	d.fixedHosts = make([]bool, len(d.ecus))
	for tp, t := range ix.Tasks {
		if t.Kind.Diagnostic() {
			continue
		}
		opts := ix.Targets[tp]
		if len(opts) == 1 {
			d.fixedTasks = append(d.fixedTasks, int32(tp))
			d.fixedTo = append(d.fixedTo, opts[0])
			if k := ecuPos[opts[0]]; k >= 0 {
				d.fixedHosts[k] = true
			}
			continue
		}
		ts := make([]target, len(opts))
		for i, r := range opts {
			ts[i] = target{res: r, ecu: ecuPos[r]}
		}
		d.choiceTasks = append(d.choiceTasks, int32(tp))
		d.choiceOpts = append(d.choiceOpts, ts)
	}

	for i, m := range ix.Messages {
		if !ix.Kind[ix.Src[i]].Diagnostic() {
			d.mandatoryMsgs = append(d.mandatoryMsgs, int32(i))
			d.routeHint += len(m.Dst)
		}
	}
	storageFor := func(bD, r int32) int32 {
		if !slices.Contains(ix.Targets[bD], r) {
			r = ix.Targets[bD][0]
		}
		return r
	}
	d.bist = make([][]bistOption, len(d.ecus))
	for k, ecu := range d.ecus {
		opts := make([]bistOption, len(profiles[k]))
		most := 0 // the most route entries one option adds
		for j, bT := range profiles[k] {
			o := bistOption{test: ix.TaskPos(bT.ID), lo: int32(len(d.bistMsgs))}
			d.bistMsgs = append(d.bistMsgs, ix.Out[o.test]...)
			if o.data = ix.Pair[o.test]; o.data >= 0 {
				o.local = storageFor(o.data, ecu)
				o.gateway = storageFor(o.data, ix.Gateway)
				d.bistMsgs = append(d.bistMsgs, ix.Out[o.data]...)
			}
			entries := 0
			for _, m := range d.bistMsgs[o.lo:] {
				entries += len(ix.Dst[m])
			}
			o.hi = int32(len(d.bistMsgs))
			most = max(most, entries)
			opts[j] = o
		}
		d.bist[k] = opts
		d.routeHint += most
	}
	d.mandatoryMsgs, d.bistMsgs = slices.Clone(d.mandatoryMsgs), slices.Clone(d.bistMsgs)
	return d, nil
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

// Decode implements Decoder. The implementation it returns is the
// caller's.
func (d *GreedyDecoder) Decode(genotype []float64) (*model.Implementation, error) {
	if err := d.check(genotype); err != nil {
		return nil, err
	}
	x := model.NewImplementation(d.Spec)
	x.Routing = make(model.Routing, 0, d.routeHint)
	if err := d.decode(x, genotype); err != nil {
		return nil, err
	}
	return x, nil
}

// DecodeWorker implements WorkerDecoder: it decodes into the worker's
// borrowed implementation, emptied in place, so a warmed-up decode
// allocates nothing. The result is Borrowed: it is Decode's
// implementation until the worker's next decode overwrites it, and
// Clone keeps a copy. Each worker index must be driven by one goroutine
// at a time, as the evaluation pool does.
func (d *GreedyDecoder) DecodeWorker(worker int, genotype []float64) (*model.Implementation, error) {
	if err := d.check(genotype); err != nil {
		return nil, err
	}
	// Only this worker takes from its pool, so the implementation is
	// back in it at once and stays this worker's until the next call.
	pool := d.scratch.get(worker, func() *sync.Pool { return new(sync.Pool) })
	x, _ := pool.Get().(*model.Implementation)
	if x == nil {
		x = model.NewBorrowedImplementation(d.Spec)
		x.Routing = make(model.Routing, 0, d.routeHint)
	} else {
		x.Reset()
	}
	pool.Put(x)
	if err := d.decode(x, genotype); err != nil {
		return nil, err
	}
	return x, nil
}

// check rejects a genotype of the wrong length and a specification
// changed since the decoder was built.
func (d *GreedyDecoder) check(genotype []float64) error {
	if len(genotype) != d.GenotypeLen() {
		return fmt.Errorf("core: genotype length %d, want %d", len(genotype), d.GenotypeLen())
	}
	if d.Spec.Index() != d.ix {
		return fmt.Errorf("core: specification changed after the greedy decoder was built")
	}
	return nil
}

// decode fills the empty implementation x from the genotype.
func (d *GreedyDecoder) decode(x *model.Implementation, genotype []float64) error {
	bind := func(t, r int32) {
		x.Binding.Set(t, r)
		x.Allocation.Add(r)
	}

	// Mandatory bindings, and which ECUs they occupy (Eq. 2h). The host
	// flags and the chosen options below live on the stack for up to 64
	// ECUs.
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
		if o.data < 0 {
			return fmt.Errorf("core: BIST task %s has no data task", d.ix.Tasks[o.test].ID)
		}
		bind(o.test, ecu)
		storeLocal := genotype[base+2*k+1] < 0.5
		switch d.StorageChoice {
		case 1:
			storeLocal = true
		case -1:
			storeLocal = false
		}
		if storeLocal {
			bind(o.data, o.local)
		} else {
			bind(o.data, o.gateway)
		}
		chosen = append(chosen, o)
	}

	// Routing: shortest path per active message. On failure the lowest
	// message ID is reported, as a scan in ID order would.
	fail := -1
	var err error
	route := func(m int32) {
		if e := d.route(x, m); e != nil && (fail < 0 || int(m) < fail) {
			fail, err = int(m), e
		}
	}
	for _, m := range d.mandatoryMsgs {
		route(m)
	}
	for _, o := range chosen {
		for _, m := range d.bistMsgs[o.lo:o.hi] {
			route(m)
		}
	}
	return err
}

// route appends message m's route to each bound receiver along the
// index's shortest path and allocates the hops. The routes share the
// index's hop table.
func (d *GreedyDecoder) route(x *model.Implementation, m int32) error {
	src := x.Binding.At(d.ix.Src[m])
	if src < 0 {
		return nil
	}
	msg := d.ix.Messages[m]
	for j, dst := range d.ix.Dst[m] {
		to := x.Binding.At(dst)
		if to < 0 {
			continue
		}
		hops, pos := d.ix.Path(src, to)
		if len(hops) == 0 {
			return fmt.Errorf("core: no route for %s from %s to %s", msg.ID, d.ix.Resources[src].ID, d.ix.Resources[to].ID)
		}
		x.Routing = append(x.Routing, model.RouteEntry{Msg: msg.ID, Dst: msg.Dst[j], Route: model.Route{Hops: hops}})
		for _, h := range pos {
			x.Allocation.Add(h)
		}
	}
	return nil
}
