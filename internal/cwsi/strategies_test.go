package cwsi

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func TestSpreadPicksLeastAllocated(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "s", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 64e9},
		Count: 2,
	})
	// Pre-load node 0 with 3 cores.
	if _, err := cl.Allocate(cl.Nodes()[0], 3, 0, 0); err != nil {
		t.Fatal(err)
	}
	got := Spread{}.PickNode(nil, cl.Nodes(), nil)
	if got != cl.Nodes()[1] {
		t.Fatalf("Spread picked %s, want the emptier node", got.Name())
	}
}

func TestSpreadRunsWorkflow(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "s", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 64e9},
		Count: 2,
	})
	cws := New(rm.NewTaskManager(cl, nil), Spread{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", Name: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", Name: "b", NominalDur: 10})
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	if _, err := runWorkflow(cws, "w", 0); err != nil {
		t.Fatal(err)
	}
	// Two independent tasks spread across both nodes.
	recs := records(cws, "w")
	if recs[0].Node == recs[1].Node {
		t.Fatalf("spread put both tasks on %s", recs[0].Node)
	}
}
