package model

import "slices"

// Index is the dense numbering of a specification: every task, message
// and resource has a position, assigned in sorted-ID order, so a walk
// by position visits them in the order App.Tasks(), App.Messages() and
// Arch.Resources() return them. Implementations store their binding
// and allocation by position, and the decoders and objectives read the
// tables below instead of looking entities up by ID.
//
// An Index is read-only once built; Specification.Index builds it on
// first use and again after the specification changes. Every slice is
// shared: callers must not modify it.
type Index struct {
	Tasks     []*Task     // by task position
	Messages  []*Message  // by message position
	Resources []*Resource // by resource position

	// Kind is each task's kind; Pair links each BIST test task to its
	// data task (Specification.DataTaskFor) and each data task to its
	// test task (Specification.TestTaskFor), by position, and is -1 for
	// every other task and for an unpaired BIST task.
	Kind []TaskKind
	Pair []int32
	// Targets lists each task's mapping targets by resource position,
	// ascending: the order of Specification.MappingTargets.
	Targets [][]int32

	// Src and Dst are each message's sender and receivers by task
	// position, receivers in Message.Dst order; Out lists each task's
	// outgoing messages by position, ascending (ApplicationGraph.Outgoing).
	Src []int32
	Dst [][]int32
	Out [][]int32

	// Gateway is the position of Specification.Gateway, -1 if it names
	// no resource.
	Gateway int32

	taskPos map[TaskID]int32
	resPos  map[ResourceID]int32
	// unbound is a binding with every task unbound, copied by
	// NewImplementation.
	unbound []int32

	// What the index was built from; see current.
	appGen, archGen uint64
	mappings        int
	gateway         ResourceID
}

// Index returns the specification's dense numbering, building it on
// the first call and again after a task, message, resource or mapping
// edge was added or the gateway changed. Like the sorted views that
// WarmCaches materializes, it must be built before the specification
// is shared across goroutines.
func (s *Specification) Index() *Index {
	if ix := s.index.Load(); ix != nil && ix.current(s) {
		return ix
	}
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	if ix := s.index.Load(); ix != nil && ix.current(s) {
		return ix
	}
	ix := buildIndex(s)
	s.index.Store(ix)
	return ix
}

func (ix *Index) current(s *Specification) bool {
	return ix.appGen == s.App.gen && ix.archGen == s.Arch.gen &&
		ix.mappings == len(s.mappings) && ix.gateway == s.Gateway
}

func buildIndex(s *Specification) *Index {
	ix := &Index{
		Tasks:     s.App.Tasks(),
		Messages:  s.App.Messages(),
		Resources: s.Arch.Resources(),
		Gateway:   -1,
		appGen:    s.App.gen,
		archGen:   s.Arch.gen,
		mappings:  len(s.mappings),
		gateway:   s.Gateway,
	}
	ix.taskPos = make(map[TaskID]int32, len(ix.Tasks))
	for i, t := range ix.Tasks {
		ix.taskPos[t.ID] = int32(i)
	}
	ix.resPos = make(map[ResourceID]int32, len(ix.Resources))
	for i, r := range ix.Resources {
		ix.resPos[r.ID] = int32(i)
	}
	ix.Gateway = ix.ResourcePos(s.Gateway)

	n := len(ix.Tasks)
	ix.Kind = make([]TaskKind, n)
	ix.Pair = make([]int32, n)
	ix.unbound = make([]int32, n)
	for i, t := range ix.Tasks {
		ix.Kind[i] = t.Kind
		ix.Pair[i] = -1
		ix.unbound[i] = -1
	}

	// Mapping targets, each task's sorted by position, which is ID order.
	ix.Targets = make([][]int32, n)
	arena := make([]int32, 0, len(s.mappings))
	for i, t := range ix.Tasks {
		lo := len(arena)
		for _, r := range s.byTask[t.ID] {
			arena = append(arena, ix.resPos[r])
		}
		ix.Targets[i] = arena[lo:len(arena):len(arena)]
		slices.Sort(ix.Targets[i])
	}

	// Message endpoints, and the BIST pairing read off the messages in
	// ID order: a test task's data task sends its lowest-ID incoming
	// message from a data task (DataTaskFor); a data task's test task
	// is the first test-task receiver of its lowest-ID message that has
	// one (TestTaskFor).
	ix.Src = make([]int32, len(ix.Messages))
	ix.Dst = make([][]int32, len(ix.Messages))
	sends := make([]int32, n+1) // then the start of each task's Out
	receivers := 0
	for i, m := range ix.Messages {
		ix.Src[i] = ix.taskPos[m.Src]
		sends[ix.Src[i]+1]++
		receivers += len(m.Dst)
	}
	for i := range n {
		sends[i+1] += sends[i]
	}
	out := make([]int32, len(ix.Messages))
	ix.Out = make([][]int32, n)
	for i := range n {
		ix.Out[i] = out[sends[i]:sends[i]:sends[i+1]]
	}
	dst := make([]int32, 0, receivers)
	for i, m := range ix.Messages {
		src := ix.Src[i]
		ix.Out[src] = append(ix.Out[src], int32(i))
		lo := len(dst)
		for _, d := range m.Dst {
			dst = append(dst, ix.taskPos[d])
		}
		ix.Dst[i] = dst[lo:len(dst):len(dst)]
		if ix.Kind[src] != KindBISTData {
			continue
		}
		first := true
		for _, d := range ix.Dst[i] {
			if ix.Kind[d] != KindBISTTest {
				continue
			}
			if ix.Pair[d] < 0 {
				ix.Pair[d] = src
			}
			if first && ix.Pair[src] < 0 {
				ix.Pair[src] = d
			}
			first = false
		}
	}
	return ix
}

// TaskPos returns the position of task id, or -1 for an unknown task.
func (ix *Index) TaskPos(id TaskID) int32 { return posOf(ix.taskPos, id) }

// ResourcePos returns the position of resource id, or -1 for an
// unknown resource.
func (ix *Index) ResourcePos(id ResourceID) int32 { return posOf(ix.resPos, id) }

func posOf[K comparable](m map[K]int32, k K) int32 {
	if p, ok := m[k]; ok {
		return p
	}
	return -1
}
