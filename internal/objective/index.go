package objective

import (
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
// per-resource slices are sized to the specification at hand on
// checkout and come back zeroed.
type evalScratch struct {
	bw       []float64     // mirrored bandwidth per resource
	varRate  []float64     // delivery variance rate per resource (robustness)
	used     []bool        // resources hosting ≥1 bound task
	test     []int32       // per resource, its selected BIST test task or -1
	gwShared map[int]int64 // gateway-stored bytes per profile
	sel      []bistSel
	data     []int32 // bound BIST data tasks
	profiles []int
}

var scratchPool = sync.Pool{New: func() any {
	return &evalScratch{gwShared: make(map[int]int64)}
}}

func getScratch(n int) *evalScratch {
	sc := scratchPool.Get().(*evalScratch)
	if len(sc.bw) != n {
		sc.bw = make([]float64, n)
		sc.varRate = make([]float64, n)
		sc.used = make([]bool, n)
		sc.test = make([]int32, n)
		for i := range sc.test {
			sc.test[i] = -1
		}
	}
	return sc
}

func putScratch(sc *evalScratch) {
	clear(sc.bw)
	clear(sc.varRate)
	clear(sc.used)
	clear(sc.gwShared)
	sc.sel = sc.sel[:0]
	sc.data = sc.data[:0]
	sc.profiles = sc.profiles[:0]
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

// fillBound walks the binding once by task position. It marks every
// resource hosting a bound task, collects the selected BIST test tasks
// in ECU order and the bound BIST data tasks in task order — the ID
// orders the objectives accumulate in, since positions follow IDs. The
// encoding selects at most one test task per ECU; if an unconstrained
// implementation carries more, the one with the highest task ID counts.
func fillBound(x *model.Implementation, sc *evalScratch) {
	ix := x.Index()
	for t := range ix.Tasks {
		r := x.Binding.At(int32(t))
		if r < 0 {
			continue
		}
		sc.used[r] = true
		switch ix.Kind[t] {
		case model.KindBISTTest:
			sc.test[r] = int32(t)
		case model.KindBISTData:
			sc.data = append(sc.data, int32(t))
		}
	}
	for r, t := range sc.test {
		if t >= 0 {
			sc.sel = append(sc.sel, bistSel{r: int32(r), t: t})
			sc.test[r] = -1
		}
	}
}
