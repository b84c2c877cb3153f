package model

import (
	"fmt"
	"sort"
)

// ApplicationGraph is the bipartite graph g_T = (T ∪ C, E_T). Tasks and
// messages alternate along every edge: a task sends a message, a message
// is received by tasks.
type ApplicationGraph struct {
	tasks    map[TaskID]*Task
	messages map[MessageID]*Message

	// outgoing maps a task to the messages it sends, incoming maps a task
	// to the messages it receives.
	outgoing map[TaskID][]MessageID
	incoming map[TaskID][]MessageID

	// Memoized sorted views; rebuilt lazily after mutation. They are
	// load-bearing for exploration throughput: objective evaluation
	// iterates the message list once per selected BIST session.
	tasksSorted    []*Task
	messagesSorted []*Message
	// gen counts mutations, so a Specification can tell its Index stale.
	gen uint64
}

// NewApplicationGraph returns an empty application graph.
func NewApplicationGraph() *ApplicationGraph {
	return &ApplicationGraph{
		tasks:    make(map[TaskID]*Task),
		messages: make(map[MessageID]*Message),
		outgoing: make(map[TaskID][]MessageID),
		incoming: make(map[TaskID][]MessageID),
	}
}

// AddTask inserts a task vertex. It returns an error on duplicate IDs.
func (g *ApplicationGraph) AddTask(t *Task) error {
	if t == nil || t.ID == "" {
		return fmt.Errorf("model: task must have a non-empty ID")
	}
	if _, dup := g.tasks[t.ID]; dup {
		return fmt.Errorf("model: duplicate task %q", t.ID)
	}
	g.tasks[t.ID] = t
	g.tasksSorted = nil
	g.gen++
	return nil
}

// AddMessage inserts a message vertex and wires the dependency edges
// (src, c) and (c, dst_i). Source and all destinations must already
// exist.
func (g *ApplicationGraph) AddMessage(m *Message) error {
	if m == nil || m.ID == "" {
		return fmt.Errorf("model: message must have a non-empty ID")
	}
	if _, dup := g.messages[m.ID]; dup {
		return fmt.Errorf("model: duplicate message %q", m.ID)
	}
	if _, ok := g.tasks[m.Src]; !ok {
		return fmt.Errorf("model: message %q: unknown source task %q", m.ID, m.Src)
	}
	if len(m.Dst) == 0 {
		return fmt.Errorf("model: message %q has no receivers", m.ID)
	}
	for _, d := range m.Dst {
		if _, ok := g.tasks[d]; !ok {
			return fmt.Errorf("model: message %q: unknown destination task %q", m.ID, d)
		}
	}
	g.messages[m.ID] = m
	g.messagesSorted = nil
	g.gen++
	g.outgoing[m.Src] = append(g.outgoing[m.Src], m.ID)
	for _, d := range m.Dst {
		g.incoming[d] = append(g.incoming[d], m.ID)
	}
	return nil
}

// Task returns the task with the given ID, or nil.
func (g *ApplicationGraph) Task(id TaskID) *Task { return g.tasks[id] }

// Message returns the message with the given ID, or nil.
func (g *ApplicationGraph) Message(id MessageID) *Message { return g.messages[id] }

// Tasks returns all tasks sorted by ID for deterministic iteration.
// The returned slice is shared; callers must not modify it.
func (g *ApplicationGraph) Tasks() []*Task {
	if g.tasksSorted == nil {
		out := make([]*Task, 0, len(g.tasks))
		for _, t := range g.tasks {
			out = append(out, t)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		g.tasksSorted = out
	}
	return g.tasksSorted
}

// Messages returns all messages sorted by ID for deterministic
// iteration. The returned slice is shared; callers must not modify it.
func (g *ApplicationGraph) Messages() []*Message {
	if g.messagesSorted == nil {
		out := make([]*Message, 0, len(g.messages))
		for _, m := range g.messages {
			out = append(out, m)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		g.messagesSorted = out
	}
	return g.messagesSorted
}

// Outgoing returns the messages sent by task id, sorted by message ID.
func (g *ApplicationGraph) Outgoing(id TaskID) []MessageID {
	out := append([]MessageID(nil), g.outgoing[id]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Incoming returns the messages received by task id, sorted by message ID.
func (g *ApplicationGraph) Incoming(id TaskID) []MessageID {
	out := append([]MessageID(nil), g.incoming[id]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumTasks returns |T|.
func (g *ApplicationGraph) NumTasks() int { return len(g.tasks) }

// NumMessages returns |C|.
func (g *ApplicationGraph) NumMessages() int { return len(g.messages) }

// TasksOfKind returns all tasks of the given kind, sorted by ID.
func (g *ApplicationGraph) TasksOfKind(k TaskKind) []*Task {
	var out []*Task
	for _, t := range g.Tasks() {
		if t.Kind == k {
			out = append(out, t)
		}
	}
	return out
}

// ArchitectureGraph is g_A = (R, E_A): resources and the bidirectional
// connections between them.
type ArchitectureGraph struct {
	resources map[ResourceID]*Resource
	adj       map[ResourceID]map[ResourceID]bool

	// Memoized sorted view, rebuilt lazily after mutation.
	resourcesSorted []*Resource
	gen             uint64 // counts added resources and links, as ApplicationGraph.gen
}

// NewArchitectureGraph returns an empty architecture graph.
func NewArchitectureGraph() *ArchitectureGraph {
	return &ArchitectureGraph{
		resources: make(map[ResourceID]*Resource),
		adj:       make(map[ResourceID]map[ResourceID]bool),
	}
}

// AddResource inserts a resource vertex. It returns an error on
// duplicate IDs.
func (g *ArchitectureGraph) AddResource(r *Resource) error {
	if r == nil || r.ID == "" {
		return fmt.Errorf("model: resource must have a non-empty ID")
	}
	if _, dup := g.resources[r.ID]; dup {
		return fmt.Errorf("model: duplicate resource %q", r.ID)
	}
	g.resources[r.ID] = r
	g.adj[r.ID] = make(map[ResourceID]bool)
	g.resourcesSorted = nil
	g.gen++
	return nil
}

// Connect adds the undirected edge {a, b} ∈ E_A.
func (g *ArchitectureGraph) Connect(a, b ResourceID) error {
	if _, ok := g.resources[a]; !ok {
		return fmt.Errorf("model: connect: unknown resource %q", a)
	}
	if _, ok := g.resources[b]; !ok {
		return fmt.Errorf("model: connect: unknown resource %q", b)
	}
	if a == b {
		return fmt.Errorf("model: connect: self-loop on %q", a)
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
	g.gen++
	return nil
}

// Resource returns the resource with the given ID, or nil.
func (g *ArchitectureGraph) Resource(id ResourceID) *Resource { return g.resources[id] }

// Resources returns all resources sorted by ID. The returned slice is
// shared; callers must not modify it.
func (g *ArchitectureGraph) Resources() []*Resource {
	if g.resourcesSorted == nil {
		out := make([]*Resource, 0, len(g.resources))
		for _, r := range g.resources {
			out = append(out, r)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		g.resourcesSorted = out
	}
	return g.resourcesSorted
}

// ResourcesOfKind returns all resources of the given kind, sorted by ID.
func (g *ArchitectureGraph) ResourcesOfKind(k ResourceKind) []*Resource {
	var out []*Resource
	for _, r := range g.Resources() {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

// Neighbors returns the resources adjacent to id, sorted by ID.
func (g *ArchitectureGraph) Neighbors(id ResourceID) []ResourceID {
	out := make([]ResourceID, 0, len(g.adj[id]))
	for n := range g.adj[id] {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Adjacent reports whether {a, b} ∈ E_A.
func (g *ArchitectureGraph) Adjacent(a, b ResourceID) bool { return g.adj[a][b] }

// NumResources returns |R|.
func (g *ArchitectureGraph) NumResources() int { return len(g.resources) }
