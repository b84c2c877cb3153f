package simulate

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/objective"
)

// ECUTrace is the simulated shut-off timeline of one ECU's BIST
// session.
type ECUTrace struct {
	ECU     model.ResourceID
	Profile int

	// TransferMS is the simulated time to ship the pattern data over
	// the ECU's mirrored functional message slots (0 for local storage).
	TransferMS float64
	// FramesUsed counts the mirrored frame instances consumed.
	FramesUsed int
	// SessionMS is the BIST session runtime l(b^T).
	SessionMS float64
	// CompleteMS = TransferMS + SessionMS.
	CompleteMS float64

	// AnalyticMS is the Eq. (5) contribution of this ECU for
	// comparison.
	AnalyticMS float64
}

// Report is the shut-off simulation of a whole implementation.
type Report struct {
	Traces []ECUTrace
	// ShutOffMS is the simulated system shut-off time (max over ECUs).
	ShutOffMS float64
	// AnalyticMS is objective.ShutOffTimeMS for comparison.
	AnalyticMS float64
}

// frameSlot is one periodic mirrored slot source.
type frameSlot struct {
	next     float64
	periodMS float64
	bytes    int64
	seq      int
}

type slotHeap []frameSlot

func (h slotHeap) Len() int { return len(h) }
func (h slotHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next < h[j].next
	}
	return h[i].seq < h[j].seq
}
func (h slotHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x any)   { *h = append(*h, x.(frameSlot)) }
func (h *slotHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// ShutOff plays out the operational shut-off of the vehicle for the
// given implementation: every selected BIST session starts at t = 0;
// gateway-stored pattern data streams in over the ECU's mirrored
// functional message slots (each slot instance carries that message's
// payload bytes); the session itself runs after the data is complete.
//
// The result cross-validates the analytic model: the simulated shut-off
// can exceed Eq. (5)'s value by at most one slot period per ECU
// (quantization — Eq. (1) assumes fluid bandwidth).
func ShutOff(x *model.Implementation) (Report, error) {
	rep := Report{AnalyticMS: objective.ShutOffTimeMS(x)}
	spec := x.Spec
	var ecus []model.ResourceID
	selected := x.SelectedBIST()
	for r := range selected {
		ecus = append(ecus, r)
	}
	sort.Slice(ecus, func(i, j int) bool { return ecus[i] < ecus[j] })

	for _, ecu := range ecus {
		bT := selected[ecu]
		bD := spec.DataTaskFor(bT)
		if bD == nil {
			return Report{}, fmt.Errorf("simulate: BIST task %s has no data task", bT.ID)
		}
		tr := ECUTrace{
			ECU:        ecu,
			Profile:    bT.Profile,
			SessionMS:  bT.WCETms,
			AnalyticMS: bT.WCETms,
		}
		if storage, ok := x.Binding.Lookup(bD.ID); ok && storage != ecu {
			q := objective.TransferTimeMS(x, bD, ecu)
			tr.AnalyticMS += q
			transfer, frames, err := simulateTransfer(x, ecu, bD.MemBytes)
			if err != nil {
				return Report{}, err
			}
			tr.TransferMS = transfer
			tr.FramesUsed = frames
		}
		tr.CompleteMS = tr.TransferMS + tr.SessionMS
		rep.Traces = append(rep.Traces, tr)
		if tr.CompleteMS > rep.ShutOffMS {
			rep.ShutOffMS = tr.CompleteMS
		}
	}
	return rep, nil
}

// simulateTransfer streams dataBytes over the mirrored slots of the
// ECU's functional messages and returns the completion time and slot
// count. The first instance of each slot fires one period after t = 0
// (the slot the functional message would have used next).
func simulateTransfer(x *model.Implementation, ecu model.ResourceID, dataBytes int64) (float64, int, error) {
	var slots slotHeap
	seq := 0
	ix := x.Index()
	on := ix.ResourcePos(ecu)
	for i, m := range ix.Messages {
		if ix.Kind[ix.Src[i]] != model.KindFunctional || on < 0 || x.Binding.At(ix.Src[i]) != on {
			continue
		}
		if m.PeriodMS <= 0 || m.SizeBytes <= 0 {
			continue
		}
		slots = append(slots, frameSlot{next: m.PeriodMS, periodMS: m.PeriodMS, bytes: m.SizeBytes, seq: seq})
		seq++
	}
	if len(slots) == 0 {
		return math.Inf(1), 0, nil
	}
	heap.Init(&slots)
	remaining := dataBytes
	used := 0
	for remaining > 0 {
		s := heap.Pop(&slots).(frameSlot)
		remaining -= s.bytes
		used++
		now := s.next
		s.next += s.periodMS
		heap.Push(&slots, s)
		if remaining <= 0 {
			return now, used, nil
		}
	}
	return 0, used, nil
}
