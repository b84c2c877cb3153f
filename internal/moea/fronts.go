package moea

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// frontSorter is the working memory of the non-dominated sort and of
// the crowding distance. An nsga2 keeps one and reuses it every step, so
// a warmed-up sort allocates nothing. The fronts a sort returns alias
// the sorter's memory: they stay valid until its next sort.
type frontSorter struct {
	// members lists the individuals by index, front after front, each
	// front in peel order; front k is members[starts[k]:starts[k+1]].
	members []int32
	starts  []int
	// fronts[k] is front k as individuals, backed by flat.
	flat   []*Individual
	fronts [][]*Individual
	// nan reports that the last sort met a NaN objective and ran the
	// pairwise pass.
	nan bool

	order []int32  // ENS: the indices in lexicographic order
	rank  []int32  // ENS: by index; then the last-dominator keys
	link  []int32  // ENS: by index, the front's member before it, or -1
	last  []int32  // ENS: per front, its latest member
	count []int32  // pairwise: dominators left per individual
	dom   []uint64 // pairwise: bit j of row i set when i dominates j
	perm  []int    // crowding: the front ordered by one objective

	resorted []*Individual // recrowd: the kept members in re-sort order
}

// sortFronts is the non-dominated sort on a throwaway sorter.
func sortFronts(pop []*Individual) [][]*Individual {
	var s frontSorter
	return s.sort(pop)
}

// assignCrowding is the crowding distance on a throwaway sorter.
func assignCrowding(front []*Individual) {
	var s frontSorter
	s.crowding(front)
}

// resize returns buf with length n, reallocating only when it is too
// small. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sort performs the non-dominated sort: it assigns every individual its
// rank and returns the fronts in order, each front's members in the
// order of Deb et al.'s peel (IEEE TEC 2002) over dominatedBy lists
// filled in ascending index order:
//
//   - front 0 in index order;
//   - front k+1 ordered by the position in front k of each member's
//     last dominator there, then by index (a member's dominator count
//     reaches zero when its last dominator in front k is peeled, and
//     each dominatedBy list is walked in index order);
//   - with NaN objectives, individuals the peel never frees (a
//     dominance cycle and what it dominates) in one last front, in
//     index order.
//
// Crowding and truncation depend on that member order. Without NaN
// the ranks come from Zhang et al.'s efficient non-dominated sort
// (ENS-SS, IEEE TEC 2015): individuals in lexicographic order join the
// first front holding none of their dominators, and only an earlier
// individual can dominate a later one. Dominance is transitive there,
// which ENS relies on; a NaN breaks it, so a population holding one
// runs the pairwise pass instead.
func (s *frontSorter) sort(pop []*Individual) [][]*Individual {
	s.nan = hasNaN(pop)
	if s.nan {
		s.pairwise(pop)
	} else {
		s.ens(pop)
	}
	n := len(pop)
	s.flat = resize(s.flat, n)
	s.fronts = resize(s.fronts, n)[:len(s.starts)-1]
	for k := range s.fronts {
		lo, hi := s.starts[k], s.starts[k+1]
		f := s.flat[lo:hi:hi]
		for p, i := range s.members[lo:hi] {
			f[p] = pop[i]
			pop[i].rank = k
		}
		s.fronts[k] = f
	}
	return s.fronts
}

func hasNaN(pop []*Individual) bool {
	for _, ind := range pop {
		for _, v := range ind.Objectives {
			if v != v {
				return true
			}
		}
	}
	return false
}

// lexCompare orders objective vectors lexicographically.
func lexCompare(a, b Objectives) int {
	for k := range a {
		if c := cmp.Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// ens fills members and starts by ENS-SS, then rebuilds the peel
// order of every front.
func (s *frontSorter) ens(pop []*Individual) {
	n := len(pop)
	s.order = resize(s.order, n)
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		return cmp.Or(lexCompare(pop[a].Objectives, pop[b].Objectives), cmp.Compare(a, b))
	})
	// Each front is a list linked from its latest member backwards, so
	// the scan meets the members closest to p in lexicographic order
	// first.
	s.rank = resize(s.rank, n)
	s.link = resize(s.link, n)
	s.last = resize(s.last, n)[:0]
	for _, p := range s.order {
		obj := pop[p].Objectives
		k := 0
		for ; k < len(s.last); k++ {
			q := s.last[k]
			for q >= 0 && !Dominates(pop[q].Objectives, obj) {
				q = s.link[q]
			}
			if q < 0 {
				break // no dominator in front k
			}
		}
		if k == len(s.last) {
			s.last = append(s.last, -1)
		}
		s.link[p], s.last[k] = s.last[k], p
		s.rank[p] = int32(k)
	}

	// Bucket the indices by rank in ascending index order, which is
	// front 0's peel order.
	nf := len(s.last)
	s.starts = resize(s.starts, n+1)[:nf+1]
	clear(s.starts)
	for _, k := range s.rank {
		s.starts[k+1]++
	}
	for k := 0; k < nf; k++ {
		s.starts[k+1] += s.starts[k]
	}
	s.members = resize(s.members, n)
	fill := s.last // spent: now each front's next free slot in members
	for k := range fill {
		fill[k] = int32(s.starts[k])
	}
	for i, k := range s.rank {
		s.members[fill[k]] = int32(i)
		fill[k]++
	}
	// Reorder each later front by its members' last dominators in the
	// front before, kept as keys in rank.
	key := s.rank
	for k := 1; k < nf; k++ {
		prev := s.members[s.starts[k-1]:s.starts[k]]
		cur := s.members[s.starts[k]:s.starts[k+1]]
		for _, j := range cur {
			key[j] = lastDominator(pop, prev, pop[j].Objectives)
		}
		slices.SortFunc(cur, func(a, b int32) int {
			return cmp.Or(cmp.Compare(key[a], key[b]), cmp.Compare(a, b))
		})
	}
}

// lastDominator returns the last position in front of an individual
// dominating obj, or 0 when none does.
func lastDominator(pop []*Individual, front []int32, obj Objectives) int32 {
	for q := len(front) - 1; q >= 0; q-- {
		if Dominates(pop[front[q]].Objectives, obj) {
			return int32(q)
		}
	}
	return 0
}

// pairwise fills members and starts by the peel itself: one dominance
// comparison per unordered pair into a bit matrix whose rows, read in
// ascending bit order, are the dominatedBy lists.
func (s *frontSorter) pairwise(pop []*Individual) {
	n := len(pop)
	w := (n + 63) >> 6
	s.dom = resize(s.dom, n*w)
	clear(s.dom)
	s.count = resize(s.count, n)
	clear(s.count)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch iDom, jDom := dominance(pop[i].Objectives, pop[j].Objectives); {
			case iDom:
				s.dom[i*w+j>>6] |= 1 << (j & 63)
				s.count[j]++
			case jDom:
				s.dom[j*w+i>>6] |= 1 << (i & 63)
				s.count[i]++
			}
		}
	}
	members := resize(s.members, n)[:0]
	starts := resize(s.starts, n+1)[:0]
	for i, c := range s.count {
		if c == 0 {
			members = append(members, int32(i))
		}
	}
	for lo := 0; lo < len(members); {
		hi := len(members)
		starts = append(starts, lo)
		for _, i := range members[lo:hi] {
			for wi, word := range s.dom[int(i)*w : int(i+1)*w] {
				for ; word != 0; word &= word - 1 {
					j := wi<<6 + bits.TrailingZeros64(word)
					s.count[j]--
					if s.count[j] == 0 {
						members = append(members, int32(j))
					}
				}
			}
		}
		lo = hi
	}
	// With NaN objectives dominance can cycle, and the peel never frees
	// a cycle or what it dominates: those individuals still count a
	// dominator. They form one last front, in index order, so every
	// individual lands in exactly one front.
	if len(members) < n {
		starts = append(starts, len(members))
		for i, c := range s.count {
			if c > 0 {
				members = append(members, int32(i))
			}
		}
	}
	s.members, s.starts = members, append(starts, len(members))
}

// recrowd recomputes the crowding of the members kept from a truncated
// front, in the order a sort of the new population puts them in: by
// the position of each one's last dominator in the front before (prev,
// nil for the first front), then by position in kept, which is their
// order in the new population.
func (s *frontSorter) recrowd(prev, kept []*Individual) {
	n := len(kept)
	s.rank = resize(s.rank, n)
	s.order = resize(s.order, n)
	for p, ind := range kept {
		s.order[p] = int32(p)
		s.rank[p] = 0
		for q := len(prev) - 1; q >= 0; q-- {
			if Dominates(prev[q].Objectives, ind.Objectives) {
				s.rank[p] = int32(q)
				break
			}
		}
	}
	key := s.rank
	slices.SortFunc(s.order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(key[a], key[b]), cmp.Compare(a, b))
	})
	s.resorted = resize(s.resorted, n)
	for p, i := range s.order {
		s.resorted[p] = kept[i]
	}
	s.crowding(s.resorted)
}

// crowding computes the crowding distance within one front.
func (s *frontSorter) crowding(front []*Individual) {
	n := len(front)
	if n == 0 {
		return
	}
	for _, ind := range front {
		ind.crowding = 0
	}
	m := len(front[0].Objectives)
	idx := resize(s.perm, n)
	s.perm = idx
	for k := 0; k < m; k++ {
		for i := range idx {
			idx[i] = i
		}
		// Insertion sort by objective k (fronts are small).
		for i := 1; i < n; i++ {
			for j := i; j > 0 && front[idx[j]].Objectives[k] < front[idx[j-1]].Objectives[k]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		lo, hi := front[idx[0]].Objectives[k], front[idx[n-1]].Objectives[k]
		front[idx[0]].crowding = math.Inf(1)
		front[idx[n-1]].crowding = math.Inf(1)
		span := hi - lo
		// A non-finite span (an objective holding ±Inf, or Inf−Inf = NaN)
		// would leak NaN into every crowding sum and silently corrupt the
		// selection ordering; skip the objective instead — the boundary
		// individuals keep their Inf crowding either way.
		if span <= 0 || math.IsInf(span, 0) || math.IsNaN(span) {
			continue
		}
		for i := 1; i < n-1; i++ {
			front[idx[i]].crowding += (front[idx[i+1]].Objectives[k] - front[idx[i-1]].Objectives[k]) / span
		}
	}
}
