package provenance

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
	"hhcw/internal/steady"
)

// mapStore is the map-keyed layout the slot tables replaced: one map per
// aggregate, each read and written back per record, and retry notes found
// by scanning back for the workflow task's latest failed record. It is the
// reference the slot store must match bit for bit.
type mapStore struct {
	records    []TaskRecord
	refByName  map[string]refAgg
	statByName map[string]statAgg
}

func newMapStore() *mapStore {
	m := &mapStore{}
	m.reset()
	return m
}

func (m *mapStore) reset() {
	*m = mapStore{
		refByName:  map[string]refAgg{},
		statByName: map[string]statAgg{},
	}
}

func (m *mapStore) addTask(r TaskRecord) {
	m.records = append(m.records, r)
	st := m.statByName[r.Name]
	st.execs++
	if r.Failed {
		st.failures++
		m.statByName[r.Name] = st
		return
	}
	rt := float64(r.Runtime())
	st.ok++
	st.sumRT += rt
	st.sumMem += r.PeakMem
	if rt > st.maxRT {
		st.maxRT = rt
	}
	m.statByName[r.Name] = st
	sf := r.SpeedFactor
	if sf <= 0 {
		sf = 1
	}
	a := m.refByName[r.Name]
	a.sum += float64(r.Runtime()) * sf
	a.n++
	m.refByName[r.Name] = a
}

func (m *mapStore) annotateRetry(wfID string, taskID dag.TaskID, delay float64, policy string) {
	for i := len(m.records) - 1; i >= 0; i-- {
		r := &m.records[i]
		if r.WorkflowID == wfID && r.TaskID == taskID && r.Failed {
			r.RetryDelaySec, r.RetryPolicy = delay, policy
			return
		}
	}
}

func (m *mapStore) statsByName() []Stats {
	var out []Stats
	for n, a := range m.statByName {
		st := Stats{Name: n, Executions: a.execs, Failures: a.failures, MaxRuntime: a.maxRT}
		if a.ok > 0 {
			st.MeanRuntime = a.sumRT / float64(a.ok)
			st.MeanPeakMem = a.sumMem / float64(a.ok)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// bitsEqual compares two values with every float by IEEE-754 bit pattern.
func bitsEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return bitsEqualValue(va, vb)
}

func bitsEqualValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqualValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqualValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Map:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	default:
		return a.Interface() == b.Interface()
	}
}

// TestSlotStoreMatchesMapStore feeds one randomized record stream to the
// slot store and to the map-keyed reference: names and workflows vary,
// failures, non-positive speed factors and attempts that never reached a
// node occur, retries are annotated (by record index in the store, by
// scanning back in the reference), and the stores are reset between rounds.
// Every query must agree bit for bit.
func TestSlotStoreMatchesMapStore(t *testing.T) {
	rng := randx.New(29)
	s, ref := NewStore(), newMapStore()
	names := []string{"align", "sort", "call", "merge", "qc", "index"}
	tenants := []string{"acme", "beta", "core"}
	var wfIDs []string
	for _, tn := range tenants {
		for i := 0; i < 4; i++ {
			wfIDs = append(wfIDs, tn+"/wf-"+strconv.Itoa(i))
		}
	}
	wfIDs = append(wfIDs, "solo")

	check := func(round, step int) {
		t.Helper()
		if s.Len() != len(ref.records) {
			t.Fatalf("round %d step %d: Len = %d, reference %d", round, step, s.Len(), len(ref.records))
		}
		if got, want := s.StatsByName(), ref.statsByName(); !bitsEqual(got, want) {
			t.Fatalf("round %d step %d: StatsByName\n got %+v\nwant %+v", round, step, got, want)
		}
		for _, n := range append(names, "unseen") {
			gotM, gotOK := s.MeanRefRuntime(n)
			var wantM float64
			a := ref.refByName[n]
			wantOK := a.n > 0
			if wantOK {
				wantM = a.sum / float64(a.n)
			}
			if gotOK != wantOK || math.Float64bits(gotM) != math.Float64bits(wantM) {
				t.Fatalf("round %d step %d: MeanRefRuntime(%s) = (%v,%v), reference (%v,%v)",
					round, step, n, gotM, gotOK, wantM, wantOK)
			}
		}
		if got, want := s.All(), ref.records; !bitsEqual(got, want) {
			t.Fatalf("round %d step %d: records differ", round, step)
		}
	}

	for round := 0; round < 6; round++ {
		for step := 0; step < 300; step++ {
			submitted := sim.Time(rng.Float64() * 1e4)
			started := submitted + sim.Time(rng.Float64()*50)
			rec := TaskRecord{
				WorkflowID:  wfIDs[rng.Intn(len(wfIDs))],
				TaskID:      dag.TaskID("t" + strconv.Itoa(rng.Intn(5))),
				Name:        names[rng.Intn(len(names))],
				Attempt:     1 + rng.Intn(3),
				SubmittedAt: submitted,
				StartedAt:   started,
				FinishedAt:  started + sim.Time(1+rng.Float64()*300),
				Node:        "n" + strconv.Itoa(rng.Intn(4)),
				SpeedFactor: []float64{0, -1, 1, 1.4, 2.0}[rng.Intn(5)],
				Cores:       1 + rng.Intn(4),
				PeakMem:     rng.Float64() * 8e9,
				Failed:      rng.Bernoulli(0.25),
			}
			if rec.Failed && rng.Bernoulli(0.3) {
				rec.Node = "" // never reached a node
				rec.StartedAt, rec.FinishedAt = rec.SubmittedAt, rec.SubmittedAt
			}
			i := s.AddTask(rec)
			ref.addTask(rec)
			if i != len(ref.records)-1 {
				t.Fatalf("round %d step %d: AddTask returned index %d, want %d", round, step, i, len(ref.records)-1)
			}
			if rec.Failed && rng.Bernoulli(0.5) {
				delay := rng.Float64() * 60
				s.AnnotateRetry(i, delay, "retry")
				ref.annotateRetry(rec.WorkflowID, rec.TaskID, delay, "retry")
			}
			if step%37 == 0 {
				check(round, step)
			}
		}
		check(round, 300)
		s.Reset()
		ref.reset()
		check(round, -1)
	}
}

// TestResetReplayAllocatesNothing locks the store's reuse of its capacity:
// after one cold replay, Reset plus the same AddTask sequence — new names,
// new workflows, records — allocates nothing.
func TestResetReplayAllocatesNothing(t *testing.T) {
	rng := randx.New(5)
	var recs []TaskRecord
	for i := 0; i < 400; i++ {
		recs = append(recs, TaskRecord{
			WorkflowID: "t" + strconv.Itoa(rng.Intn(3)) + "/wf-" + strconv.Itoa(rng.Intn(20)),
			TaskID:     dag.TaskID("x" + strconv.Itoa(i)),
			Name:       "proc" + strconv.Itoa(rng.Intn(12)),
			StartedAt:  1,
			FinishedAt: sim.Time(2 + rng.Intn(100)),
			Node:       "n0",
			Failed:     rng.Bernoulli(0.2),
		})
	}
	s := NewStore()
	replay := func() {
		s.Reset()
		for _, r := range recs {
			s.AddTask(r)
		}
	}
	replay() // cold: every slot is new
	if n := steady.AllocsPerRun(20, replay); n != 0 {
		t.Fatalf("warm Reset+replay allocates %v times, want 0", n)
	}
}
