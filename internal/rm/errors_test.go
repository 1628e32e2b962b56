package rm

import (
	"errors"
	"fmt"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/sim"
)

// TestFailureCauseText checks each typed failure cause against the
// fmt.Errorf text it replaced, on the same inputs, for every layer that
// reports it, and that errors.As finds it.
func TestFailureCauseText(t *testing.T) {
	type tc struct {
		err  error
		want string
		as   func(error) bool
	}
	asNode := func(err error) bool { var e *NodeFailedError; return errors.As(err, &e) }
	asTransient := func(err error) bool { var e *TransientError; return errors.As(err, &e) }
	var cases []tc
	for _, layer := range []string{"rm", "pilot"} {
		for _, node := range []string{"node-0003", "frontier-0042", ""} {
			cases = append(cases, tc{&NodeFailedError{Layer: layer, Node: node},
				fmt.Sprintf("%s: node %s failed", layer, node), asNode})
		}
	}
	for _, layer := range []string{"rm", "cwsi"} {
		for _, attempt := range []int{1, 2, 10, -1} {
			cases = append(cases, tc{&TransientError{Layer: layer, Task: "mProject_07", Attempt: attempt},
				fmt.Sprintf("%s: injected transient failure of %s (attempt %d)", layer, "mProject_07", attempt), asTransient})
		}
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Errorf("%#v: Error() = %q, want %q", c.err, got, c.want)
		}
		wrapped := fmt.Errorf("outer: %w", c.err)
		if !c.as(wrapped) {
			t.Errorf("%#v: errors.As does not find the type", c.err)
		}
	}
}

// TestFailureCausesAtTheirSites drives one terminal failure of each kind
// through a StreamRunner on a TaskManager — a node failure and an injected
// transient failure — and checks the cause its
// result carries: the typed value, and the text the runner used to build.
func TestFailureCausesAtTheirSites(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(eng *sim.Engine, m *TaskManager, sr *StreamRunner, w *dag.Workflow)
		want  string
		as    func(error) bool
	}{
		{"node", func(eng *sim.Engine, m *TaskManager, _ *StreamRunner, _ *dag.Workflow) {
			eng.At(50, func() { m.cl.FailNode(m.running[0].alloc.Node) })
		}, "rm: node n-0000 failed", func(err error) bool { var e *NodeFailedError; return errors.As(err, &e) }},
		{"transient", func(_ *sim.Engine, _ *TaskManager, sr *StreamRunner, w *dag.Workflow) {
			sr.FailPlan = failPlan(w, map[dag.TaskID]int{"a": 1})
		}, "rm: injected transient failure of a (attempt 1)", func(err error) bool { var e *TransientError; return errors.As(err, &e) }},
	} {
		eng := sim.NewEngine()
		m := NewTaskManager(testCluster(eng, 2, 8), nil)
		w := dag.New("w")
		w.Add(&dag.Task{ID: "a", NominalDur: 100})
		sr := &StreamRunner{Manager: m}
		c.setup(eng, m, sr, w)
		_, results := runWorkflow(t, sr, w)
		r := results["a"]
		if !r.Failed || r.Err == nil || r.Err.Error() != c.want || !c.as(r.Err) {
			t.Errorf("%s: result failed=%v err=%v, want %q", c.name, r.Failed, r.Err, c.want)
		}
	}
}
