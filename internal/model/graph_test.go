package model

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// ShortestPath is the map-based breadth-first search the Index's path
// table replaced, kept as its oracle: the shortest hop path from src to
// dst, both endpoints included, visiting neighbors in ID order and
// keeping each resource's first discoverer; ok is false if no path
// exists.
func (g *ArchitectureGraph) ShortestPath(src, dst ResourceID) (path []ResourceID, ok bool) {
	if _, have := g.resources[src]; !have {
		return nil, false
	}
	if _, have := g.resources[dst]; !have {
		return nil, false
	}
	if src == dst {
		return []ResourceID{src}, true
	}
	prev := map[ResourceID]ResourceID{src: src}
	queue := []ResourceID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range g.Neighbors(cur) {
			if _, seen := prev[n]; seen {
				continue
			}
			prev[n] = cur
			if n == dst {
				var rev []ResourceID
				for at := dst; ; at = prev[at] {
					rev = append(rev, at)
					if at == src {
						break
					}
				}
				slices.Reverse(rev)
				return rev, true
			}
			queue = append(queue, n)
		}
	}
	return nil, false
}

// components labels every resource with its connected component in
// g_A, the ID of the component's first resource in ID order: the
// oracle of Validate's reachability verdict.
func (g *ArchitectureGraph) components() map[ResourceID]ResourceID {
	comp := make(map[ResourceID]ResourceID, len(g.resources))
	var stack []ResourceID
	for _, r := range g.Resources() {
		if _, seen := comp[r.ID]; seen {
			continue
		}
		comp[r.ID] = r.ID
		stack = append(stack[:0], r.ID)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for n := range g.adj[cur] {
				if _, seen := comp[n]; !seen {
					comp[n] = r.ID
					stack = append(stack, n)
				}
			}
		}
	}
	return comp
}

// randomSpec generates a small seeded specification: 2–11 resources
// added in random order (so insertion order is not ID order), one of
// them the gateway, each pair linked with one probability drawn per
// specification, which leaves some architectures in several parts and
// gives others cycles where equal-length paths tie; 1–6 functional tasks
// with one or two mapping options each; and up to 5 messages with one or
// two receivers.
func randomSpec(rng *rand.Rand) *Specification {
	n := 2 + rng.Intn(10)
	arch := NewArchitectureGraph()
	ids := make([]ResourceID, n)
	for i, p := range rng.Perm(n) {
		ids[i] = ResourceID(fmt.Sprintf("r%02d", p))
		kind := KindECU
		if i == 0 {
			kind = KindGateway
		} else if rng.Intn(3) == 0 {
			kind = KindBus
		}
		if err := arch.AddResource(&Resource{ID: ids[i], Kind: kind}); err != nil {
			panic(err)
		}
	}
	link := 0.1 + 0.4*rng.Float64()
	for i := range ids {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < link {
				if err := arch.Connect(ids[i], ids[j]); err != nil {
					panic(err)
				}
			}
		}
	}

	app := NewApplicationGraph()
	spec := NewSpecification(app, arch)
	spec.Gateway = ids[0]
	tasks := make([]TaskID, 1+rng.Intn(6))
	for i := range tasks {
		tasks[i] = TaskID(fmt.Sprintf("t%d", i))
		if err := app.AddTask(&Task{ID: tasks[i], Kind: KindFunctional}); err != nil {
			panic(err)
		}
		for _, r := range rng.Perm(n)[:1+rng.Intn(2)] {
			if err := spec.AddMapping(tasks[i], ids[r]); err != nil {
				panic(err)
			}
		}
	}
	for i := range rng.Intn(6) {
		order := rng.Perm(len(tasks))
		if len(order) < 2 {
			break
		}
		dst := []TaskID{tasks[order[1]]}
		if len(order) > 2 && rng.Intn(2) == 0 {
			dst = append(dst, tasks[order[2]])
		}
		m := &Message{ID: MessageID(fmt.Sprintf("c%d", i)), Src: tasks[order[0]], Dst: dst}
		if err := app.AddMessage(m); err != nil {
			panic(err)
		}
	}
	return spec
}

// TestIndexPathsMatchOracle checks every path and distance of the Index
// against ShortestPath on generated architectures, and that the seeds
// cover unreachable pairs and ties between equal-length paths.
func TestIndexPathsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	unreachable, ties := 0, 0
	for range 300 {
		spec := randomSpec(rng)
		ix := spec.Index()
		RequirePathsMatchOracle(t, spec)
		for a := range ix.Resources {
			for b := range ix.Resources {
				d := ix.Dist(int32(a), int32(b))
				if d < 0 {
					unreachable++
					continue
				}
				// b is reached over a tie if two of its neighbors lie one
				// hop closer to a.
				closer := 0
				for _, nb := range ix.Adj[b] {
					if ix.Dist(int32(a), nb) == d-1 {
						closer++
					}
				}
				if closer > 1 {
					ties++
				}
			}
		}
	}
	if unreachable == 0 || ties == 0 {
		t.Fatalf("generator produced %d unreachable pairs and %d ties, want both", unreachable, ties)
	}
}

// RequirePathsMatchOracle requires the Index's path, positions and
// distance of every ordered resource pair of spec to be what
// ShortestPath returns. It is exported for the model_test package's
// case-study tests.
func RequirePathsMatchOracle(t *testing.T, spec *Specification) {
	t.Helper()
	ix := spec.Index()
	for a, ra := range ix.Resources {
		for b, rb := range ix.Resources {
			want, ok := spec.Arch.ShortestPath(ra.ID, rb.ID)
			hops, pos := ix.Path(int32(a), int32(b))
			if ok != (len(hops) > 0) || !slices.Equal(hops, want) || len(pos) != len(hops) {
				t.Fatalf("path %s→%s: index %v, ShortestPath %v (ok %v)", ra.ID, rb.ID, hops, want, ok)
			}
			for i, h := range pos {
				if ix.Resources[h].ID != want[i] {
					t.Fatalf("path %s→%s: hop position %d names %s, want %s", ra.ID, rb.ID, i, ix.Resources[h].ID, want[i])
				}
			}
			if d := ix.Dist(int32(a), int32(b)); d != len(want)-1 {
				t.Fatalf("distance %s→%s: %d, want %d", ra.ID, rb.ID, d, len(want)-1)
			}
		}
	}
}

// TestValidateReachabilityMatchesComponents: on generated
// specifications, whose only possible defect is a message no binding can
// route, Validate accepts exactly those in which every receiver has a
// mapping option in the component of one of the sender's.
func TestValidateReachabilityMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	verdicts := map[bool]int{}
	for range 300 {
		spec := randomSpec(rng)
		comp := spec.Arch.components()
		want := true
		for _, m := range spec.App.Messages() {
			for _, dst := range m.Dst {
				connected := false
				for _, sr := range spec.MappingTargets(m.Src) {
					for _, dr := range spec.MappingTargets(dst) {
						connected = connected || comp[sr] == comp[dr]
					}
				}
				want = want && connected
			}
		}
		err := spec.Validate()
		if (err == nil) != want || err != nil && !strings.Contains(err.Error(), "no mapping combination connects") {
			t.Fatalf("Validate = %v, components say routable = %v", err, want)
		}
		verdicts[want]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("generator produced verdicts %v, want both", verdicts)
	}
}

// TestIndexConcurrentFirstBuild: goroutines asking a fresh
// specification for its Index at once all get the same one, as every
// evaluation worker reads it.
func TestIndexConcurrentFirstBuild(t *testing.T) {
	spec := buildTinySpec(t)
	got := make([]*Index, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = spec.Index()
		}()
	}
	close(start)
	wg.Wait()
	for i, ix := range got {
		if ix == nil || ix != got[0] {
			t.Fatalf("goroutine %d got Index %p, goroutine 0 %p", i, ix, got[0])
		}
	}
	if spec.Index() != got[0] {
		t.Fatal("Index rebuilt after the concurrent first build")
	}
}
