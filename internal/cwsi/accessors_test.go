package cwsi

import (
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/predict"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func TestAccessorsAndNames(t *testing.T) {
	eng := sim.NewEngine()
	mgr := rm.NewTaskManager(smallCluster(eng, 1, 4), nil)
	p := predict.NewMean()
	cws := New(mgr, Baseline{}, p)
	if cws.mgr != mgr {
		t.Fatal("manager not installed")
	}
	if cws.predictor != p {
		t.Fatal("predictor not installed")
	}
	w := chainWorkflow()
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	if cws.workflows["w"].wf != w {
		t.Fatal("workflow not registered")
	}
	unbound := &rm.Submission{WorkflowID: "w", TaskID: "a"}
	if cws.ctx.Rank(unbound) != 0 || cws.ctx.PredictedRank(unbound) != 0 {
		t.Fatal("unbound-submission rank should be 0")
	}
	if cws.ctx.PredictRuntime(unbound, nil) != 0 {
		t.Fatal("unbound-submission prediction should be 0")
	}
	if cws.ctx.Tenant(unbound) != -1 {
		t.Fatal("unbound-submission tenant should be -1")
	}
	if err := cws.Bind(&rm.StreamRunner{Manager: mgr}, "w", 0, 3); err != nil {
		t.Fatal(err)
	}
	a := bound(cws, "w", 0)
	if got, want := cws.ctx.Rank(a), w.UpwardRanks(nil, dag.NominalDur)[0]; got != want || got == 0 {
		t.Fatalf("bound rank = %v, want %v", got, want)
	}
	if cws.ctx.Tenant(a) != 3 {
		t.Fatalf("bound tenant = %d, want 3", cws.ctx.Tenant(a))
	}

	names := map[string]Strategy{
		"fifo":   Baseline{},
		"rank":   Rank{},
		"heft":   HEFT{},
		"tarema": Tarema{},
		"spread": Spread{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Fatalf("strategy name = %q, want %q", s.Name(), want)
		}
	}
	adapter := &rmAdapter{cws: cws}
	if adapter.Name() != "cws/fifo" {
		t.Fatalf("adapter name = %q", adapter.Name())
	}
}

func TestPredictRuntimeFallsBackToNominal(t *testing.T) {
	eng := sim.NewEngine()
	cl := smallCluster(eng, 1, 4)
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil) // no predictor
	w := dag.New("w")
	w.Add(&dag.Task{ID: "t", Name: "t", NominalDur: 42, IOFrac: 0})
	cws.RegisterWorkflow("w", w)
	if got := cws.ctx.PredictRuntime(bound(cws, "w", 0), cl.Nodes()[0]); got != 42 {
		t.Fatalf("fallback prediction = %v, want 42", got)
	}
}

// bound returns a submission for the task at insertion index i of the
// registered workflow id, wrapped by the hook Bind installs, as the runner
// submits a first attempt.
func bound(c *CWS, id string, i int) *rm.Submission {
	st := c.workflows[id]
	t := st.wf.At(i)
	s := &rm.Submission{WorkflowID: id, TaskID: t.ID, Name: t.Name, Mem: t.MemBytes}
	st.hook(s, t, i, 1)
	return s
}
