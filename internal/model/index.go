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
	// Mappable is the transpose of Targets: each resource's mappable
	// tasks by position, ascending.
	Mappable [][]int32

	// Src and Dst are each message's sender and receivers by task
	// position, receivers in Message.Dst order; Out lists each task's
	// outgoing messages by position, ascending (ApplicationGraph.Outgoing).
	Src []int32
	Dst [][]int32
	Out [][]int32

	// Gateway is the position of Specification.Gateway, -1 if it names
	// no resource.
	Gateway int32

	// Adj lists each resource's neighbours in g_A by position,
	// ascending (ArchitectureGraph.Neighbors).
	Adj [][]int32

	// The shortest path from resource a to b is hopIDs[lo:hi] and, by
	// position, hopPos[lo:hi], where lo, hi = paths[a*n+b],
	// paths[a*n+b+1] for n resources; an empty path means b is
	// unreachable from a. See Path and Dist.
	paths  []int32
	hopIDs []ResourceID
	hopPos []int32

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
// the first call and again after a task, message, resource, link or
// mapping edge was added or the gateway changed. Goroutines may call it
// at once on an unchanging specification and get the same Index.
// Building it also memoizes the sorted views App.Tasks, App.Messages
// and Arch.Resources, which are not safe to build concurrently: build
// the index (Index or Validate) before goroutines read those.
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
	ix.buildPaths(s.Arch)

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
	// Walking the tasks in position order fills each resource's list in
	// ascending order.
	starts := make([]int32, len(ix.Resources)+1)
	for _, r := range arena {
		starts[r+1]++
	}
	for r := range ix.Resources {
		starts[r+1] += starts[r]
	}
	mappable := make([]int32, len(arena))
	ix.Mappable = make([][]int32, len(ix.Resources))
	for r := range ix.Mappable {
		ix.Mappable[r] = mappable[starts[r]:starts[r]:starts[r+1]]
	}
	for t, rs := range ix.Targets {
		for _, r := range rs {
			ix.Mappable[r] = append(ix.Mappable[r], int32(t))
		}
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

// buildPaths fills Adj and lays the shortest path between every
// ordered resource pair into the hop arena. This is the one traversal
// of g_A: a breadth-first search per source that visits neighbours in
// position (ID) order and keeps each resource's first discoverer, so of
// several equal-length paths the one through the lowest-ID hops closest
// to the source wins.
func (ix *Index) buildPaths(arch *ArchitectureGraph) {
	n := len(ix.Resources)
	ix.Adj = make([][]int32, n)
	for i, r := range ix.Resources {
		for nb := range arch.adj[r.ID] {
			ix.Adj[i] = append(ix.Adj[i], ix.resPos[nb])
		}
		slices.Sort(ix.Adj[i])
	}
	prev := make([]int32, n)
	queue := make([]int32, 0, n)
	ix.paths = make([]int32, 1, n*n+1)
	for src := range int32(n) {
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = src
		queue = append(queue[:0], src)
		for q := 0; q < len(queue); q++ {
			for _, nb := range ix.Adj[queue[q]] {
				if prev[nb] < 0 {
					prev[nb] = queue[q]
					queue = append(queue, nb)
				}
			}
		}
		for dst := range int32(n) {
			if prev[dst] >= 0 {
				lo := len(ix.hopPos)
				for at := dst; at != src; at = prev[at] {
					ix.hopPos = append(ix.hopPos, at)
				}
				ix.hopPos = append(ix.hopPos, src)
				slices.Reverse(ix.hopPos[lo:])
				for _, h := range ix.hopPos[lo:] {
					ix.hopIDs = append(ix.hopIDs, ix.Resources[h].ID)
				}
			}
			ix.paths = append(ix.paths, int32(len(ix.hopPos)))
		}
	}
}

// Path returns the shortest hop path in g_A from resource position a
// to b, both endpoints included, as resource IDs and as positions; both
// are empty if no path joins them. The slices are shared and capped, so
// an append copies instead of writing into the next path.
func (ix *Index) Path(a, b int32) ([]ResourceID, []int32) {
	p := int(a)*len(ix.Resources) + int(b)
	lo, hi := ix.paths[p], ix.paths[p+1]
	return ix.hopIDs[lo:hi:hi], ix.hopPos[lo:hi:hi]
}

// Dist returns the hop distance in g_A from resource position a to b:
// the length of Path(a, b) less one, and -1 if no path joins them.
func (ix *Index) Dist(a, b int32) int {
	p := int(a)*len(ix.Resources) + int(b)
	return int(ix.paths[p+1]-ix.paths[p]) - 1
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
