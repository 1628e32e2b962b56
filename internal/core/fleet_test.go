package core

import (
	"errors"
	"testing"

	"hhcw/internal/cloud"
	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// Abort fails a waiting submission and a running one on the fleet; the
// freed instance takes the next task at once, and only the aborted
// attempt's elapsed time counts as busy.
func TestFleetAbort(t *testing.T) {
	eng := sim.NewEngine()
	f := &fleet{env: cloud.NewEnv(eng), itype: cloud.T3Medium, max: 1} // boots in 60 s
	got := map[string]rm.Result{}
	sub := func(id string, dur float64) *rm.Submission {
		return &rm.Submission{TaskID: dag.TaskID(id), Runtime: func(*cluster.Node) float64 { return dur },
			Done: func(r rm.Result) { got[id] = r }}
	}
	run, wait := sub("run", 100), sub("wait", 100)
	f.Submit(run)
	f.Submit(wait)
	f.Submit(sub("next", 10))
	boom := errors.New("aborted")
	eng.At(70, func() {
		if !f.Abort(wait, boom) || !f.Abort(run, boom) || f.Abort(sub("run", 100), boom) {
			t.Error("Abort found the wrong submissions")
		}
	})
	eng.Run()
	for _, id := range []string{"run", "wait"} {
		if r := got[id]; !r.Failed || !errors.Is(r.Err, boom) || r.FinishedAt != 70 {
			t.Fatalf("%s: %+v, want failed with the abort error at 70", id, r)
		}
	}
	if r := got["next"]; r.Failed || r.StartedAt != 70 || r.FinishedAt != 80 {
		t.Fatalf("next: %+v, want a 70..80 run", r)
	}
	if len(f.env.Instances()) != 1 || f.busySec != 20 {
		t.Fatalf("instances=%d busy=%v, want 1 instance busy 20 s", len(f.env.Instances()), f.busySec)
	}
}
