package jaws

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

const expandWDL = `
workflow metasweep
task prep cpu=2 mem=4G dur=120s overhead=30s
task align cpu=4 mem=8G dur=300s overhead=60s scatter=24 after=prep
task filter cpu=2 mem=2G dur=90s overhead=30s scatter=24 after=align
task stats cpu=1 mem=1G dur=60s after=prep
task merge cpu=8 mem=16G dur=240s overhead=60s after=filter,stats
`

// Every emission of the expander must carry the eager insertion index of the
// identical task Compile materializes — same ID, resources, duration — and
// cover each index exactly once.
func TestScatterExpanderMatchesCompile(t *testing.T) {
	def, err := Parse(expandWDL)
	if err != nil {
		t.Fatal(err)
	}
	w, err := def.Compile()
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if x.Name() != w.Name || x.Total() != w.Len() {
		t.Fatalf("Name/Total: %q/%d, want %q/%d", x.Name(), x.Total(), w.Name, w.Len())
	}
	want := w.Tasks()
	seen := make([]bool, len(want))
	var frontier []dag.TaskID
	emitted := 0
	for {
		for {
			task, idx, ok := x.Next()
			if !ok {
				break
			}
			if idx < 0 || idx >= len(want) || seen[idx] {
				t.Fatalf("emission %d: bad or repeated index %d", emitted, idx)
			}
			seen[idx] = true
			ref := want[idx]
			if task.ID != ref.ID || task.Name != ref.Name || task.Cores != ref.Cores ||
				task.MemBytes != ref.MemBytes || task.NominalDur != ref.NominalDur {
				t.Fatalf("index %d mismatch:\n got  %+v\n want %+v", idx, task, ref)
			}
			frontier = append(frontier, task.ID)
			emitted++
			x.Retire(task)
		}
		if len(frontier) == 0 {
			break
		}
		x.TaskDone(frontier[0])
		frontier = frontier[1:]
	}
	if emitted != len(want) {
		t.Fatalf("emitted %d tasks, want %d", emitted, len(want))
	}
}

func expandTestCluster(nodes, cores int) (*sim.Engine, *rm.TaskManager) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "site", cluster.Spec{
		Type:  cluster.NodeType{Name: "node", Cores: cores, MemBytes: 64e9},
		Count: nodes,
	})
	return eng, rm.NewTaskManager(cl, nil)
}

// The lazy scatter expander must be event-for-event identical to the
// compiled workflow replayed through dag.WorkflowExpander: same makespan,
// same utilization, same failure accounting — fault-free and with injected
// failures (one recovered by retry, one terminal with cascade skips).
func TestScatterExpanderEagerEquivalence(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		name := "fault-free"
		if faulty {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			def, err := Parse(expandWDL)
			if err != nil {
				t.Fatal(err)
			}
			w, err := def.Compile()
			if err != nil {
				t.Fatal(err)
			}
			retry := fault.DefaultRetryPolicy()

			// Fault plan keyed by eager insertion index: task 3 retries once
			// and recovers; task 10 (an align shard) exhausts the budget and
			// cascade-skips its dependents.
			plan := map[int]int{3: 1, 10: retry.MaxAttempts + 1}
			run := func(src dag.Expander) (*rm.StreamRunner, *rm.TaskManager, sim.Time) {
				_, mgr := expandTestCluster(16, 16)
				sr := &rm.StreamRunner{Manager: mgr, Source: src, WorkflowID: w.Name}
				if faulty {
					r := retry
					sr.Retry = &r
					sr.RetryRNG = randx.New(7)
					sr.FailPlan = func(i int) int { return plan[i] }
				}
				return sr, mgr, sr.Run()
			}

			wx, err := dag.NewWorkflowExpander(w)
			if err != nil {
				t.Fatal(err)
			}
			eager, mgrE, msE := run(wx)
			x, err := def.Expand()
			if err != nil {
				t.Fatal(err)
			}
			stream, mgrS, msS := run(x)

			if msS != msE {
				t.Fatalf("makespan: streaming %v != eager %v", msS, msE)
			}
			utE := mgrE.Cluster().Utilization(msE)
			utS := mgrS.Cluster().Utilization(msS)
			if utS != utE {
				t.Fatalf("utilization: streaming %v != eager %v", utS, utE)
			}
			if mgrS.Completed() != mgrE.Completed() || mgrS.Failed() != mgrE.Failed() {
				t.Fatalf("manager counts: streaming %d/%d != eager %d/%d",
					mgrS.Completed(), mgrS.Failed(), mgrE.Completed(), mgrE.Failed())
			}
			if stream.Stats() != eager.Stats() {
				t.Fatalf("run stats:\n streaming %+v\n eager     %+v", stream.Stats(), eager.Stats())
			}
		})
	}
}

// Def-granular skip accounting: failing one shard writes off every shard of
// every transitively dependent def, exactly once.
func TestScatterExpanderFailureSkips(t *testing.T) {
	def, err := Parse(expandWDL)
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	prep, _, ok := x.Next()
	if !ok || prep.Name != "prep" {
		t.Fatalf("first emission: %v", prep)
	}
	x.TaskDone(prep.ID)
	shard, _, ok := x.Next()
	if !ok || shard.Name != "align" {
		t.Fatalf("second emission: %v", shard)
	}
	// filter (24) + merge (1) are downstream of align; stats is not.
	if n := x.TaskFailed(shard.ID); n != 25 {
		t.Fatalf("TaskFailed skipped %d, want 25", n)
	}
	// The rest of align and stats still run; nothing downstream surfaces.
	rest := 0
	var pending []dag.TaskID
	for {
		task, _, ok := x.Next()
		if !ok {
			if len(pending) == 0 {
				break
			}
			x.TaskDone(pending[0])
			pending = pending[1:]
			continue
		}
		if task.Name != "align" && task.Name != "stats" {
			t.Fatalf("skipped def %q surfaced", task.Name)
		}
		pending = append(pending, task.ID)
		rest++
	}
	if rest != 24 { // 23 remaining align shards + stats
		t.Fatalf("emitted %d post-failure tasks, want 24", rest)
	}
	if got := resident(x); got != 0 {
		t.Fatalf("resident after drain: %d", got)
	}
}

// scatterDef builds the memory-ceiling workload: prep -> scatter N -> gather.
func scatterDef(t testing.TB, shards int) *ScatterExpander {
	t.Helper()
	def, err := Parse(fmt.Sprintf(`
workflow bigscatter
task prep cpu=1 dur=10s
task work cpu=1 dur=60s scatter=%d after=prep
task gather cpu=1 dur=10s after=work
`, shards))
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// The memory-ceiling regression: a streaming scatter run's peak resident task
// records must hit a fixed constant — the admission window — independent of
// task count, and heap growth must stay bounded while the run is in flight.
// The full run drives a million tasks; -short scales down but still compares
// two sizes an order of magnitude apart.
func TestStreamingScatterMemoryCeiling(t *testing.T) {
	sizes := []int{100_000, 1_000_000}
	heapBound := uint64(512 << 20)
	if testing.Short() {
		sizes = []int{10_000, 100_000}
		heapBound = 256 << 20
	}
	const window = 2048

	peaks := make([]int, len(sizes))
	for i, n := range sizes {
		x := scatterDef(t, n)
		_, mgr := expandTestCluster(128, 8)
		var peakHeap uint64
		retired := 0
		sr := &rm.StreamRunner{
			Manager:     mgr,
			Source:      x,
			WorkflowID:  "bigscatter",
			MaxResident: window,
			Observe: func(*dag.Task, rm.Result) {
				retired++
				if retired%20_000 == 0 {
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peakHeap {
						peakHeap = ms.HeapAlloc
					}
				}
			},
		}
		sr.Run()
		if mgr.Completed() != n+2 {
			t.Fatalf("n=%d: completed %d, want %d", n, mgr.Completed(), n+2)
		}
		if sr.PeakResident() > window {
			t.Fatalf("n=%d: peak resident %d exceeds window %d", n, sr.PeakResident(), window)
		}
		if peakHeap > heapBound {
			t.Fatalf("n=%d: peak heap %dMB exceeds bound %dMB — resident state is no longer O(in-flight)",
				n, peakHeap>>20, heapBound>>20)
		}
		peaks[i] = sr.PeakResident()
		t.Logf("n=%d: peak resident %d, sampled peak heap %dMB", n, peaks[i], peakHeap>>20)
	}
	if peaks[0] != peaks[1] {
		t.Fatalf("peak resident scales with task count: %v for sizes %v", peaks, sizes)
	}
}

// shardRenderer is the one ID builder behind Compile and the streaming
// expander; it must stay byte-identical to the historical fmt form whether
// it renders an ID in full or from its predecessor, and locate must invert
// it.
func TestShardIDMatchesSprintf(t *testing.T) {
	var r shardRenderer
	var ids []dag.TaskID
	var want []string
	for p, name := range []string{"w", "align", "a-much-longer-task-name"} {
		for _, s := range []int{0, 1, 9, 10, 999, 1000, 9999, 10000, 10001, 123456, 123457} {
			ids = append(ids, r.id(p, name, 200000, s))
			want = append(want, fmt.Sprintf("%s/shard%04d", name, s))
		}
		if got := r.id(p, name, 1, 0); string(got) != name {
			t.Fatalf("1-shard def %q: ID %q, want the bare name", name, got)
		}
	}
	// Checked after every write: earlier IDs must survive new chunks.
	for i := range ids {
		if string(ids[i]) != want[i] {
			t.Fatalf("shard ID = %q, want %q", ids[i], want[i])
		}
	}

	def, err := Parse(expandWDL)
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range x.order {
		for _, s := range []int{0, 9, d.Shards() - 1} {
			if s >= d.Shards() {
				continue
			}
			id := r.id(p, d.Name, d.Shards(), s)
			if gp, gs, ok := x.locate(id); !ok || gp != p || gs != s {
				t.Fatalf("locate(%q) = (%d, %d, %v), want (%d, %d)", id, gp, gs, ok, p, s)
			}
		}
	}
	for _, id := range []dag.TaskID{
		"", "ghost", "align", "prep/shard0000", "align/", "align/shard", "align/shard12",
		"align/shard00012", "align/shard-001", "align/shardx001", "align/shard0001/x", "align/part0001",
	} {
		if _, _, ok := x.locate(id); ok {
			t.Fatalf("locate(%q) accepted an ID shardRenderer never produces", id)
		}
	}
}

// expectUnknownShard runs report and requires the expander's
// unknown-shard panic for id.
func expectUnknownShard(t *testing.T, id dag.TaskID, report func()) {
	t.Helper()
	want := fmt.Sprintf("jaws: expander %q got a terminal report for unknown shard %q", "metasweep", id)
	defer func() {
		t.Helper()
		if p := recover(); p != want {
			t.Fatalf("report of %q: panic %v, want %q", id, p, want)
		}
	}()
	report()
}

// Terminal reports must name a shard that was emitted and has not reported
// yet; anything else — an unknown ID, a shard not emitted yet, a duplicate
// done or failed report — panics exactly as the map-addressed table did.
// Reports arrive out of order, and the flight tables must track the
// in-flight count throughout.
func TestScatterExpanderRejectsBadReports(t *testing.T) {
	def, err := Parse(expandWDL)
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, report := range []func(dag.TaskID){
		x.TaskDone,
		func(id dag.TaskID) { x.TaskFailed(id) },
	} {
		for _, id := range []dag.TaskID{"ghost", "prep", "align/shard0000", "merge", "prep/shard0000"} {
			expectUnknownShard(t, id, func() { report(id) })
		}
	}
	prep, _, _ := x.Next()
	x.TaskDone(prep.ID)
	// Every malformed ID is also reported right after a valid report of
	// its def, which locate tries first.
	misreport := func(id dag.TaskID) {
		t.Helper()
		for _, bad := range misspellings(id) {
			expectUnknownShard(t, bad, func() { x.TaskDone(bad) })
			expectUnknownShard(t, bad, func() { x.TaskFailed(bad) })
		}
	}
	expectUnknownShard(t, "prep", func() { x.TaskDone("prep") })
	expectUnknownShard(t, "prep", func() { x.TaskFailed("prep") })
	misreport("prep")

	r := randx.New(3)
	var inflight []dag.TaskID
	reported := 0
	for {
		for {
			task, _, ok := x.Next()
			if !ok {
				break
			}
			inflight = append(inflight, task.ID)
			x.Retire(task)
		}
		if resident(x) != len(inflight) {
			t.Fatalf("resident = %d, %d shards in flight", resident(x), len(inflight))
		}
		if len(inflight) == 0 {
			break
		}
		i := r.Intn(len(inflight))
		id := inflight[i]
		inflight[i] = inflight[len(inflight)-1]
		inflight = inflight[:len(inflight)-1]
		x.TaskDone(id)
		reported++
		if resident(x) != len(inflight) {
			t.Fatalf("resident = %d after reporting %q, %d in flight", resident(x), id, len(inflight))
		}
		expectUnknownShard(t, id, func() { x.TaskDone(id) })
		expectUnknownShard(t, id, func() { x.TaskFailed(id) })
		// Misspell a sibling still in flight where there is one, so that a
		// misspelling locate wrongly accepted would settle a live shard.
		sibling := id
		idName, _, _ := strings.Cut(string(id), "/")
		for _, other := range inflight {
			if name, _, _ := strings.Cut(string(other), "/"); name == idName {
				sibling = other
				break
			}
		}
		misreport(sibling)
		if resident(x) != len(inflight) {
			t.Fatalf("resident = %d after misreports of %q, %d in flight", resident(x), sibling, len(inflight))
		}
	}
	if reported != x.Total()-1 {
		t.Fatalf("reported %d shards after prep, want %d", reported, x.Total()-1)
	}
}

// misspellings returns IDs that differ from the valid shard ID id by one
// edit shardRenderer never makes: the separator, the "shard" tag, the digit
// count, a leading zero, a trailing byte, or a name one byte short or long.
func misspellings(id dag.TaskID) []dag.TaskID {
	name, digits, sharded := strings.Cut(string(id), "/shard")
	if !sharded {
		return []dag.TaskID{id + "/shard0000", id + "/", id + "_shard0000", id + "x", id[:len(id)-1]}
	}
	var out []dag.TaskID
	for _, v := range []string{
		name + "_shard" + digits,
		name + "shard" + digits,
		name + "/shard" + digits[1:],
		name + "/shard0" + digits,
		name + "/Shard" + digits,
		name + "/part" + digits,
		name + "/shard" + digits + "/x",
		name + "/shard" + digits[:len(digits)-1] + "x",
		name[:len(name)-1] + "/shard" + digits,
		name + "x/shard" + digits,
		name + "/",
		name + "/shard",
		name,
	} {
		out = append(out, dag.TaskID(v))
	}
	return out
}

// resident returns how many emitted shards of x its flight tables hold as
// awaiting their terminal report.
func resident(x *ScatterExpander) int {
	n := 0
	for _, f := range x.flights {
		for _, done := range f.reported {
			if !done {
				n++
			}
		}
	}
	return n
}

// residentProbe forwards an expander and checks, at every call, that the
// ScatterExpander's flight tables hold exactly the shards emitted and not
// yet reported.
type residentProbe struct {
	*ScatterExpander
	t        *testing.T
	inflight int
}

func (p *residentProbe) check() {
	p.t.Helper()
	if got := resident(p.ScatterExpander); got != p.inflight {
		p.t.Fatalf("resident = %d, %d shards in flight", got, p.inflight)
	}
}

func (p *residentProbe) Next() (*dag.Task, int, bool) {
	t, idx, ok := p.ScatterExpander.Next()
	if ok {
		p.inflight++
	}
	p.check()
	return t, idx, ok
}

func (p *residentProbe) TaskDone(id dag.TaskID) {
	p.ScatterExpander.TaskDone(id)
	p.inflight--
	p.check()
}

func (p *residentProbe) TaskFailed(id dag.TaskID) int {
	n := p.ScatterExpander.TaskFailed(id)
	p.inflight--
	p.check()
	return n
}

// The flight tables must match the in-flight count through a faulty run:
// retried shards, a terminally failed shard with cascade skips, and a window
// that keeps admission throttled.
func TestScatterExpanderResidentUnderFaults(t *testing.T) {
	def, err := Parse(expandWDL)
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	retry := fault.DefaultRetryPolicy()
	plan := map[int]int{3: 1, 7: 2, 10: retry.MaxAttempts + 1, 30: 1}
	_, mgr := expandTestCluster(4, 8)
	probe := &residentProbe{ScatterExpander: x, t: t}
	sr := &rm.StreamRunner{
		Manager: mgr, Source: probe, WorkflowID: def.Name, MaxResident: 16,
		Retry: &retry, RetryRNG: randx.New(7),
		FailPlan: func(i int) int { return plan[i] },
	}
	sr.Run()
	if st := sr.Stats(); st.Retries == 0 || st.TerminalFailures != 1 || st.Skipped == 0 {
		t.Fatalf("fault plan did not bite: %+v", st)
	}
	if resident(x) != 0 {
		t.Fatalf("resident after drain: %d", resident(x))
	}
}

// TestFlightSlidesInPlace: a window sliding over a def's shards — report the
// oldest, emit the next — compacts within one array of bounded size instead
// of reallocating it as the front advances.
func TestFlightSlidesInPlace(t *testing.T) {
	const window = 64
	var f flight
	next := 0
	for ; next < window; next++ {
		f.emit()
	}
	// One run slides the window by its own width.
	slide := func() {
		for i := 0; i < window; i++ {
			if !f.report(f.lo) {
				t.Fatalf("shard %d did not report", f.lo)
			}
			f.emit()
			next++
		}
	}
	slide()
	array := &f.reported[:1][0]
	for i := 0; i < 100; i++ {
		slide()
	}
	if &f.reported[:1][0] != array {
		t.Fatal("the sliding window moved to a new array")
	}
	if c := cap(f.reported); c > 4*window {
		t.Fatalf("window of %d holds an array of %d", window, c)
	}
	if f.lo != next-window || len(f.reported)-f.head != window {
		t.Fatalf("window [%d, +%d), want [%d, +%d)", f.lo, len(f.reported)-f.head, next-window, window)
	}
	// Out of order: a report past the front leaves the window's start
	// until the front reports too.
	if !f.report(f.lo+1) || f.report(f.lo+1) || f.lo != next-window {
		t.Fatal("report past the front moved the window or reported twice")
	}
	if !f.report(f.lo) || f.lo != next-window+2 {
		t.Fatalf("front report moved lo to %d, want %d", f.lo, next-window+2)
	}
}
