package dag

import (
	"fmt"
)

// refWorkflow is the map-based Workflow the index-addressed one replaced,
// kept verbatim as the oracle FuzzWorkflowMatchesReference checks against:
// tasks keyed by ID, an insertion-order ID list, and successor ID lists
// appended as each edge is created.
type refWorkflow struct {
	Name     string
	tasks    map[TaskID]*Task
	order    []TaskID
	children map[TaskID][]TaskID
}

func newRef(name string) *refWorkflow {
	return &refWorkflow{
		Name:     name,
		tasks:    map[TaskID]*Task{},
		children: map[TaskID][]TaskID{},
	}
}

func (w *refWorkflow) Add(t *Task) *Task {
	if t.ID == "" {
		panic("dag: task with empty ID")
	}
	if _, dup := w.tasks[t.ID]; dup {
		panic(fmt.Sprintf("dag: duplicate task ID %q", t.ID))
	}
	if t.Cores <= 0 {
		t.Cores = 1
	}
	w.tasks[t.ID] = t
	w.order = append(w.order, t.ID)
	for _, d := range t.Deps {
		w.children[d] = append(w.children[d], t.ID)
	}
	return t
}

func (w *refWorkflow) AddEdge(from, to TaskID) error {
	if w.tasks[from] == nil {
		return fmt.Errorf("dag: edge from unknown task %q", from)
	}
	t := w.tasks[to]
	if t == nil {
		return fmt.Errorf("dag: edge to unknown task %q", to)
	}
	if from == to {
		return fmt.Errorf("dag: self-edge on task %q", from)
	}
	for _, d := range t.Deps {
		if d == from {
			return nil
		}
	}
	t.Deps = append(t.Deps, from)
	w.children[from] = append(w.children[from], to)
	return nil
}

func (w *refWorkflow) Tasks() []*Task {
	out := make([]*Task, len(w.order))
	for i, id := range w.order {
		out[i] = w.tasks[id]
	}
	return out
}

func (w *refWorkflow) Children(id TaskID) []*Task {
	ids := w.children[id]
	out := make([]*Task, len(ids))
	for i, c := range ids {
		out[i] = w.tasks[c]
	}
	return out
}

func (w *refWorkflow) Roots() []*Task {
	out := make([]*Task, 0, 4)
	for _, id := range w.order {
		if t := w.tasks[id]; len(t.Deps) == 0 {
			out = append(out, t)
		}
	}
	return out
}

func (w *refWorkflow) Leaves() []*Task {
	var out []*Task
	for _, t := range w.Tasks() {
		if len(w.children[t.ID]) == 0 {
			out = append(out, t)
		}
	}
	return out
}

func (w *refWorkflow) Validate() error {
	for _, t := range w.Tasks() {
		for _, d := range t.Deps {
			if _, ok := w.tasks[d]; !ok {
				return fmt.Errorf("dag: task %q depends on unknown task %q", t.ID, d)
			}
		}
	}
	_, err := w.TopoOrder()
	return err
}

func (w *refWorkflow) TopoOrder() ([]*Task, error) {
	indeg := make(map[TaskID]int, len(w.tasks))
	for _, t := range w.tasks {
		indeg[t.ID] = len(t.Deps)
	}
	var ready []TaskID
	for _, id := range w.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	out := make([]*Task, 0, len(w.tasks))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, w.tasks[id])
		for _, c := range w.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(out) != len(w.tasks) {
		return nil, fmt.Errorf("dag: workflow %q contains a cycle", w.Name)
	}
	return out, nil
}

func (w *refWorkflow) CriticalPath(fn DurFn) (float64, []TaskID) {
	topo, err := w.TopoOrder()
	if err != nil {
		panic(err)
	}
	dist := make(map[TaskID]float64, len(topo))
	prev := make(map[TaskID]TaskID, len(topo))
	best := 0.0
	var bestID TaskID
	for _, t := range topo {
		d := 0.0
		var from TaskID
		for _, dep := range t.Deps {
			if dist[dep] > d {
				d = dist[dep]
				from = dep
			}
		}
		dist[t.ID] = d + fn(t)
		if from != "" {
			prev[t.ID] = from
		}
		if dist[t.ID] > best {
			best = dist[t.ID]
			bestID = t.ID
		}
	}
	var path []TaskID
	for id := bestID; id != ""; id = prev[id] {
		path = append(path, id)
		if _, ok := prev[id]; !ok {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return best, path
}

func (w *refWorkflow) UpwardRanks(fn DurFn) map[TaskID]float64 {
	topo, err := w.TopoOrder()
	if err != nil {
		panic(err)
	}
	rank := make(map[TaskID]float64, len(topo))
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		best := 0.0
		for _, c := range w.children[t.ID] {
			if rank[c] > best {
				best = rank[c]
			}
		}
		rank[t.ID] = fn(t) + best
	}
	return rank
}

// refExpander is the map-based WorkflowExpander, verbatim.
type refExpander struct {
	w         *refWorkflow
	state     map[TaskID]refReadiness
	ready     []TaskID
	readyNext int
}

type refReadiness struct {
	idx       int
	remaining int
	skipped   bool
}

func newRefExpander(w *refWorkflow) *refExpander {
	x := &refExpander{w: w, state: map[TaskID]refReadiness{}}
	for i, id := range w.order {
		x.state[id] = refReadiness{idx: i, remaining: len(w.tasks[id].Deps)}
	}
	for _, t := range w.Roots() {
		x.ready = append(x.ready, t.ID)
	}
	return x
}

func (x *refExpander) Next() (*Task, int, bool) {
	if x.readyNext >= len(x.ready) {
		x.ready = x.ready[:0]
		x.readyNext = 0
		return nil, 0, false
	}
	id := x.ready[x.readyNext]
	x.readyNext++
	return x.w.tasks[id], x.state[id].idx, true
}

func (x *refExpander) TaskDone(id TaskID) {
	for _, cid := range x.w.children[id] {
		st := x.state[cid]
		st.remaining--
		x.state[cid] = st
		if st.remaining == 0 && !st.skipped {
			x.ready = append(x.ready, cid)
		}
	}
}

func (x *refExpander) TaskFailed(id TaskID) int {
	n := 0
	for _, cid := range x.w.children[id] {
		st := x.state[cid]
		if st.skipped {
			continue
		}
		st.skipped = true
		x.state[cid] = st
		n += 1 + x.TaskFailed(cid)
	}
	return n
}
