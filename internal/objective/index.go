package objective

import (
	"slices"
	"sync"

	"repro/internal/model"
)

// specIndex is the static evaluation index of one specification: the
// parts of every objective that do not depend on the implementation,
// computed once and shared by all evaluations (and all MOEA workers).
// It refers to tasks and resources by their positions in the
// specification's model.Index, so an evaluation reads slices and hashes
// no ID.
type specIndex struct {
	ix *model.Index
	// funcMsgs lists the bandwidth-carrying functional messages in the
	// deterministic application order (sorted by message ID) with the
	// quotient s(c)/p(c) of Eq. (1) precomputed. A single pass over this
	// slice yields every resource's mirrored bandwidth; each resource
	// accumulates exactly the subsequence it would have accumulated in
	// a filtered rescan, in the same order, so the floating-point sums
	// are bit-identical.
	funcMsgs []funcMsg
	// isECU marks the resources of ECU kind, by position.
	isECU []bool
	// slot numbers each BIST data task's profile, by task position, by
	// its rank among the data tasks' distinct profiles (-1 for every
	// other task), so ascending slot order is ascending profile order;
	// slots is the number of distinct profiles.
	slot  []int32
	slots int
}

type funcMsg struct {
	src    int32   // sender task position
	bw     float64 // SizeBytes / PeriodMS, bytes per millisecond
	size   int64   // SizeBytes — the robustness objective derives per-slot error probabilities
	period float64 // PeriodMS
}

// indexCache maps *model.Specification → *specIndex. An entry is
// rebuilt when the implementation at hand is numbered by a newer
// model.Index than the one it was built from.
var indexCache sync.Map

func indexOf(x *model.Implementation) *specIndex {
	ix := x.Index()
	if v, ok := indexCache.Load(x.Spec); ok && v.(*specIndex).ix == ix {
		return v.(*specIndex)
	}
	idx := &specIndex{ix: ix, isECU: make([]bool, len(ix.Resources))}
	for i, m := range ix.Messages {
		if ix.Kind[ix.Src[i]] != model.KindFunctional || m.PeriodMS <= 0 {
			continue // contributes no bandwidth
		}
		idx.funcMsgs = append(idx.funcMsgs, funcMsg{
			src:    ix.Src[i],
			bw:     float64(m.SizeBytes) / m.PeriodMS,
			size:   m.SizeBytes,
			period: m.PeriodMS,
		})
	}
	for r, res := range ix.Resources {
		idx.isECU[r] = res.Kind == model.KindECU
	}
	var profiles []int
	for t, task := range ix.Tasks {
		if ix.Kind[t] == model.KindBISTData {
			profiles = append(profiles, task.Profile)
		}
	}
	slices.Sort(profiles)
	profiles = slices.Compact(profiles)
	idx.slots = len(profiles)
	idx.slot = make([]int32, len(ix.Tasks))
	for t, task := range ix.Tasks {
		idx.slot[t] = -1
		if ix.Kind[t] == model.KindBISTData {
			p, _ := slices.BinarySearch(profiles, task.Profile)
			idx.slot[t] = int32(p)
		}
	}
	indexCache.Store(x.Spec, idx)
	return idx
}

// bistSel is one selected BIST test task, by position, with the
// position of the ECU it is bound to.
type bistSel struct {
	r, t int32
}

// evalScratch holds the per-evaluation working memory, pooled so that
// concurrent evaluations neither share state nor reallocate it. The
// per-resource and per-slot slices are sized to the specification at
// hand on checkout and come back zeroed (test and gwShared: all -1).
type evalScratch struct {
	bw       []float64 // mirrored bandwidth per resource
	varRate  []float64 // delivery variance rate per resource (robustness)
	used     []bool    // resources hosting ≥1 bound task
	test     []int32   // per resource, its selected BIST test task or -1
	gwShared []int64   // gateway-stored bytes per profile slot, -1 if none
	sel      []bistSel
	data     []int32 // bound BIST data tasks
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

func getScratch(idx *specIndex) *evalScratch {
	sc := scratchPool.Get().(*evalScratch)
	if n := len(idx.ix.Resources); len(sc.bw) != n {
		sc.bw = make([]float64, n)
		sc.varRate = make([]float64, n)
		sc.used = make([]bool, n)
		sc.test = make([]int32, n)
		for i := range sc.test {
			sc.test[i] = -1
		}
	}
	if len(sc.gwShared) != idx.slots {
		sc.gwShared = make([]int64, idx.slots)
		for i := range sc.gwShared {
			sc.gwShared[i] = -1
		}
	}
	return sc
}

// putScratch returns sc to the pool. fillBound empties test and
// monetaryCosts empties gwShared as they read them.
func putScratch(sc *evalScratch) {
	clear(sc.bw)
	clear(sc.varRate)
	clear(sc.used)
	sc.sel = sc.sel[:0]
	sc.data = sc.data[:0]
	scratchPool.Put(sc)
}

// fillBandwidths computes every resource's mirrored functional
// bandwidth in one pass over the index (see specIndex.funcMsgs for why
// the sums are bit-identical to per-resource rescans).
func fillBandwidths(x *model.Implementation, idx *specIndex, bw []float64) {
	for _, fm := range idx.funcMsgs {
		if r := x.Binding.At(fm.src); r >= 0 {
			bw[r] += fm.bw
		}
	}
}

// fillBound walks the bound tasks once, in ascending position order.
// It marks every resource hosting a bound task, collects the selected
// BIST test tasks in ECU order and the bound BIST data tasks in task
// order — the ID orders the objectives accumulate in, since positions
// follow IDs. The walk skips only unbound tasks, which add nothing, so
// every sum sees the same terms in the same order as a walk over all
// tasks would. The encoding selects at most one test task per ECU; if
// an unconstrained implementation carries more, the one with the
// highest task ID counts.
func fillBound(x *model.Implementation, sc *evalScratch) {
	ix, b := x.Index(), x.Binding
	for t := b.Next(0); t >= 0; t = b.Next(t + 1) {
		r := b.At(t)
		sc.used[r] = true
		switch ix.Kind[t] {
		case model.KindBISTTest:
			sc.test[r] = t
		case model.KindBISTData:
			sc.data = append(sc.data, t)
		}
	}
	for r, t := range sc.test {
		if t >= 0 {
			sc.sel = append(sc.sel, bistSel{r: int32(r), t: t})
			sc.test[r] = -1
		}
	}
}
