package provenance

import (
	"fmt"
	"math"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// The per-name running aggregates replaced full record rescans. Feeding a
// random record stream and recomputing both MeanRefRuntime and StatsByName
// from scratch pins the equivalence — bit-identical for the mean, since the
// aggregate accumulates in the same insertion order a rescan would.

func rescanMeanRef(records []TaskRecord, name string) (float64, bool) {
	sum, n := 0.0, 0
	for _, r := range records {
		if r.Name != name || r.Failed {
			continue
		}
		sf := r.SpeedFactor
		if sf <= 0 {
			sf = 1
		}
		sum += float64(r.Runtime()) * sf
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

func TestRunningAggregatesMatchRescan(t *testing.T) {
	r := randx.New(17)
	s := NewStore()
	var records []TaskRecord
	names := []string{"align", "sort", "call", "merge"}
	for i := 0; i < 500; i++ {
		start := sim.Time(r.Float64() * 1e4)
		rec := TaskRecord{
			WorkflowID:  fmt.Sprintf("wf%d", r.Intn(3)),
			TaskID:      "t",
			Name:        names[r.Intn(len(names))],
			StartedAt:   start,
			FinishedAt:  start + sim.Time(1+r.Float64()*300),
			SpeedFactor: []float64{0, 1, 1.4, 2.0}[r.Intn(4)],
			PeakMem:     r.Float64() * 8e9,
			Failed:      r.Bernoulli(0.2),
		}
		s.AddTask(rec)
		records = append(records, rec)

		if i%50 != 0 && i != 499 {
			continue
		}
		for _, name := range names {
			wantMean, wantOK := rescanMeanRef(records, name)
			gotMean, gotOK := s.MeanRefRuntime(name)
			if wantOK != gotOK || gotMean != wantMean {
				t.Fatalf("after %d records, MeanRefRuntime(%s) = (%v,%v), rescan (%v,%v)",
					i+1, name, gotMean, gotOK, wantMean, wantOK)
			}
		}
	}

	// StatsByName vs a rescan of the final stream.
	for _, st := range s.StatsByName() {
		execs, fails, ok := 0, 0, 0
		sumRT, sumMem, maxRT := 0.0, 0.0, 0.0
		for _, r := range records {
			if r.Name != st.Name {
				continue
			}
			execs++
			if r.Failed {
				fails++
				continue
			}
			ok++
			rt := float64(r.Runtime())
			sumRT += rt
			sumMem += r.PeakMem
			if rt > maxRT {
				maxRT = rt
			}
		}
		if st.Executions != execs || st.Failures != fails || st.MaxRuntime != maxRT {
			t.Fatalf("%s: counts (%d,%d,max %v) vs rescan (%d,%d,max %v)",
				st.Name, st.Executions, st.Failures, st.MaxRuntime, execs, fails, maxRT)
		}
		wantMeanRT, wantMeanMem := 0.0, 0.0
		if ok > 0 {
			wantMeanRT, wantMeanMem = sumRT/float64(ok), sumMem/float64(ok)
		}
		if math.Abs(st.MeanRuntime-wantMeanRT) > 0 || math.Abs(st.MeanPeakMem-wantMeanMem) > 0 {
			t.Fatalf("%s: means (%v,%v) vs rescan (%v,%v)",
				st.Name, st.MeanRuntime, st.MeanPeakMem, wantMeanRT, wantMeanMem)
		}
	}
}

func TestReleaseWorkflowKeepsRecords(t *testing.T) {
	s := NewStore()
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", Name: "a"})
	s.RegisterWorkflow("wf", w)
	s.AddTask(TaskRecord{WorkflowID: "wf", TaskID: "a", Name: "a", Node: "n"})
	s.ReleaseWorkflow("wf")
	if doc := exportDoc(t, s); len(doc.Workflows) != 0 {
		t.Fatalf("released workflow still exported: %+v", doc.Workflows)
	}
	if len(byWorkflow(s, "wf")) != 1 {
		t.Fatal("records dropped by release")
	}
	s.ReleaseWorkflow("ghost") // no-op
}
