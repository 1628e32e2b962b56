package provenance

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// mapStore is the map-keyed layout the slot tables replaced: one map per
// aggregate, each read and written back per record. It is the reference the
// slot store must match bit for bit.
type mapStore struct {
	records    []TaskRecord
	byWorkflow map[string][]int
	refByName  map[string]refAgg
	statByName map[string]statAgg
	tenantOf   func(string) string
	byTenant   map[string]tenantAgg
}

func newMapStore() *mapStore {
	m := &mapStore{}
	m.reset()
	return m
}

func (m *mapStore) reset() {
	*m = mapStore{
		byWorkflow: map[string][]int{},
		refByName:  map[string]refAgg{},
		statByName: map[string]statAgg{},
		byTenant:   map[string]tenantAgg{},
	}
}

func (m *mapStore) addTask(r TaskRecord) {
	m.byWorkflow[r.WorkflowID] = append(m.byWorkflow[r.WorkflowID], len(m.records))
	m.records = append(m.records, r)
	if m.tenantOf != nil {
		t := m.tenantOf(r.WorkflowID)
		a := m.byTenant[t]
		a.execs++
		if r.Failed {
			a.failures++
		}
		if r.Node != "" {
			a.started++
			a.waitSum += float64(r.StartedAt - r.SubmittedAt)
			if !r.Failed {
				a.coreSec += float64(r.Cores) * float64(r.Runtime())
			}
		}
		m.byTenant[t] = a
	}
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

func (m *mapStore) annotateRetry(wfID string, taskID dag.TaskID, delay float64, policy string) bool {
	idx := m.byWorkflow[wfID]
	for i := len(idx) - 1; i >= 0; i-- {
		r := &m.records[idx[i]]
		if r.TaskID == taskID && r.Failed {
			r.RetryDelaySec, r.RetryPolicy = delay, policy
			return true
		}
	}
	return false
}

func (m *mapStore) collect(idx []int) []TaskRecord {
	out := make([]TaskRecord, len(idx))
	for i, j := range idx {
		out[i] = m.records[j]
	}
	return out
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

func (m *mapStore) statsByTenant() []TenantStats {
	var out []TenantStats
	for t, a := range m.byTenant {
		out = append(out, TenantStats{
			Tenant: t, Executions: a.execs, Failures: a.failures,
			Started: a.started, QueueWaitSum: a.waitSum, CoreSeconds: a.coreSec,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
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

func tenantPrefix(wfID string) string {
	for i := 0; i < len(wfID); i++ {
		if wfID[i] == '/' {
			return wfID[:i]
		}
	}
	return wfID
}

// TestSlotStoreMatchesMapStore feeds one randomized record stream to the
// slot store and to the map-keyed reference: names, workflows and tenants
// vary, failures, non-positive speed factors and attempts that never reached
// a node occur, retries are annotated, and the stores are reset between
// rounds. Every query must agree bit for bit.
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
	wfIDs = append(wfIDs, "solo") // no tenant prefix

	check := func(round, step int) {
		t.Helper()
		if s.Len() != len(ref.records) {
			t.Fatalf("round %d step %d: Len = %d, reference %d", round, step, s.Len(), len(ref.records))
		}
		if got, want := s.StatsByName(), ref.statsByName(); !bitsEqual(got, want) {
			t.Fatalf("round %d step %d: StatsByName\n got %+v\nwant %+v", round, step, got, want)
		}
		if got, want := s.StatsByTenant(), ref.statsByTenant(); !bitsEqual(got, want) {
			t.Fatalf("round %d step %d: StatsByTenant\n got %+v\nwant %+v", round, step, got, want)
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
		for _, w := range append(wfIDs, "unseen/wf") {
			if got, want := byWorkflow(s, w), ref.collect(ref.byWorkflow[w]); !bitsEqual(got, want) {
				t.Fatalf("round %d step %d: records of %s differ", round, step, w)
			}
		}
	}

	for round := 0; round < 6; round++ {
		// Some rounds attribute tenants from the start, some install the
		// resolver mid-stream, some never do.
		resolverAt := []int{0, 150, -1}[round%3]
		for step := 0; step < 300; step++ {
			if step == resolverAt {
				s.SetTenantResolver(tenantPrefix)
				ref.tenantOf = tenantPrefix
			}
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
			s.AddTask(rec)
			ref.addTask(rec)
			if rec.Failed && rng.Bernoulli(0.5) {
				delay := rng.Float64() * 60
				if got, want := s.AnnotateRetry(rec.WorkflowID, rec.TaskID, delay, "retry"),
					ref.annotateRetry(rec.WorkflowID, rec.TaskID, delay, "retry"); got != want {
					t.Fatalf("round %d step %d: AnnotateRetry = %v, reference %v", round, step, got, want)
				}
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

// TestResetReplayAllocatesNothing locks the index-list pool's balance: after
// one warm-up replay, Reset plus the same AddTask sequence — new names, new
// workflows, tenants, records — allocates nothing.
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
		s.SetTenantResolver(tenantPrefix)
		for _, r := range recs {
			s.AddTask(r)
		}
	}
	replay() // cold: every slot and list is new
	// The first harvesting Reset grows the pool once; the replay after it
	// must already draw, key by key, exactly the capacity it filled.
	s.Reset()
	s.SetTenantResolver(tenantPrefix)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range recs {
		s.AddTask(r)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("first warm replay allocates %d times, want 0", n)
	}
	if n := testing.AllocsPerRun(20, replay); n != 0 {
		t.Fatalf("warm Reset+replay allocates %v times, want 0", n)
	}
	if len(s.freeIdx) != 0 {
		t.Fatalf("index-list pool holds %d slices after a balanced replay, want 0", len(s.freeIdx))
	}
}
