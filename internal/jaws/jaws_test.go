package jaws

import (
	"math"
	"strings"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

const sampleWDL = `
# JGI-style assembly workflow
workflow assembly
container docker://jgi/asm@sha256:deadbeef
task filter cpu=2 mem=4G dur=10m overhead=1m
task align cpu=4 mem=8G dur=30m overhead=1m after=filter scatter=24
task merge cpu=2 mem=4G dur=5m overhead=1m after=align
`

func mustParse(t *testing.T, text string) *WorkflowDef {
	t.Helper()
	def, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func testSite(eng *sim.Engine, nodes, cores int) (*cluster.Cluster, *storage.Store) {
	cl := cluster.New(eng, "site", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: cores, MemBytes: 1e12},
		Count: nodes,
	})
	return cl, storage.NewStore("scratch", 0, 0, 0)
}

func TestParseSample(t *testing.T) {
	def := mustParse(t, sampleWDL)
	if def.Name != "assembly" || len(def.Tasks) != 3 {
		t.Fatalf("parsed %q with %d tasks", def.Name, len(def.Tasks))
	}
	align := def.Task("align")
	if align == nil || align.Cores != 4 || align.MemBytes != 8e9 {
		t.Fatalf("align = %+v", align)
	}
	if align.DurationSec != 1800 || align.OverheadSec != 60 {
		t.Fatalf("align timing = %v/%v", align.DurationSec, align.OverheadSec)
	}
	if align.Scatter != 24 || align.After[0] != "filter" {
		t.Fatalf("align shape = %+v", align)
	}
	if !strings.Contains(align.Container, "@sha256:") {
		t.Fatal("default container not inherited")
	}
	if def.TotalShards() != 1+24+1 {
		t.Fatalf("TotalShards = %d", def.TotalShards())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"task orphan dur=10s",                        // no workflow name
		"workflow w\ntask a dur=10s\ntask a dur=10s", // duplicate
		"workflow w\ntask a after=ghost",             // unknown dep
		"workflow w\ntask a bogus=1",                 // unknown attribute
		"workflow w\nfrobnicate x",                   // unknown directive
		"workflow w\ntask a after=b\ntask b after=a", // cycle
		"workflow w\ntask a dur=xyz",                 // bad duration
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) accepted", c)
		}
	}
}

// TestParseRejectsNonFiniteQuantities: a NaN, infinite or negative memory,
// duration or overhead is refused by name. Accepted, a mem=NaN task upstream
// of a 100G task on one 64 GB node would poison the node's free-memory
// ledger and let the 100G task place.
func TestParseRejectsNonFiniteQuantities(t *testing.T) {
	cases := []struct{ attr, field string }{
		{"mem=NaN", "MemBytes"},
		{"mem=-4G", "MemBytes"},
		{"mem=+Inf", "MemBytes"},
		{"mem=1e300G", "MemBytes"}, // overflows to +Inf without a parse error
		{"dur=NaN", "DurationSec"},
		{"dur=+Inf", "DurationSec"},
		{"dur=-5s", "DurationSec"},
		{"overhead=NaN", "OverheadSec"},
		{"overhead=-1m", "OverheadSec"},
	}
	for _, c := range cases {
		text := "workflow w\ntask a cpu=1 mem=1G dur=10s\ntask bad cpu=1 dur=10s " + c.attr + " after=a\n"
		_, err := Parse(text)
		if err == nil {
			t.Errorf("Parse accepted %s", c.attr)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, `"bad"`) || !strings.Contains(msg, c.field) {
			t.Errorf("Parse(%s) error %q does not name task \"bad\" and field %s", c.attr, msg, c.field)
		}
	}
	// A struct literal goes through the same check on its way to the engine.
	def := &WorkflowDef{Name: "lit", Tasks: []*TaskDef{{Name: "a", Cores: 1, DurationSec: 10, MemBytes: math.NaN()}}}
	if err := def.Validate(); err == nil || !strings.Contains(err.Error(), "MemBytes") {
		t.Fatalf("Validate on a NaN-memory literal = %v", err)
	}
}

func TestParseUnits(t *testing.T) {
	if v, _ := parseSeconds("2h"); v != 7200 {
		t.Fatalf("2h = %v", v)
	}
	if v, _ := parseSeconds("90s"); v != 90 {
		t.Fatalf("90s = %v", v)
	}
	if v, _ := parseBytes("4G"); v != 4e9 {
		t.Fatalf("4G = %v", v)
	}
	if v, _ := parseBytes("512M"); v != 512e6 {
		t.Fatalf("512M = %v", v)
	}
}

func TestSignatureSensitivity(t *testing.T) {
	def := mustParse(t, sampleWDL)
	align := def.Task("align")
	s1 := def.Signature(align, 0)
	if s1 != def.Signature(align, 0) {
		t.Fatal("signature not deterministic")
	}
	if s1 == def.Signature(align, 1) {
		t.Fatal("shard index not in signature")
	}
	// Upstream change invalidates downstream.
	def2 := mustParse(t, strings.Replace(sampleWDL, "task filter cpu=2 mem=4G dur=10m", "task filter cpu=2 mem=4G dur=20m", 1))
	if s1 == def2.Signature(def2.Task("align"), 0) {
		t.Fatal("upstream change did not alter downstream signature")
	}
	// Container change invalidates.
	def3 := mustParse(t, strings.Replace(sampleWDL, "sha256:deadbeef", "sha256:cafef00d", 1))
	if s1 == def3.Signature(def3.Task("align"), 0) {
		t.Fatal("container change did not alter signature")
	}
}

func TestEngineRunsChain(t *testing.T) {
	eng := sim.NewEngine()
	cl, store := testSite(eng, 8, 8)
	e := NewEngine(cl, store)
	def := mustParse(t, `
workflow lin
task a dur=100s overhead=10s
task b dur=200s overhead=10s after=a
`)
	rep, err := e.Run(def, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 320 { // 110 + 210
		t.Fatalf("makespan = %v, want 320", rep.Makespan)
	}
	if rep.ShardsExecuted != 2 || rep.FilesystemOps != 2 {
		t.Fatalf("shards=%d fsops=%d", rep.ShardsExecuted, rep.FilesystemOps)
	}
	if got := len(store.List()); got != 2 {
		t.Fatalf("staged files = %d", got)
	}
}

func TestEngineScatterShards(t *testing.T) {
	eng := sim.NewEngine()
	cl, store := testSite(eng, 4, 8)
	e := NewEngine(cl, store)
	def := mustParse(t, `
workflow sc
task fan dur=60s overhead=0s scatter=16
task merge dur=10s overhead=0s after=fan
`)
	rep, err := e.Run(def, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShardsExecuted != 17 {
		t.Fatalf("shards = %d, want 17", rep.ShardsExecuted)
	}
	// 16 single-core shards on 32 cores: one wave of 60 s, merge 10 s.
	if rep.Makespan != 70 {
		t.Fatalf("makespan = %v, want 70", rep.Makespan)
	}
}

func TestCallCachingSecondRunFree(t *testing.T) {
	eng := sim.NewEngine()
	cl, store := testSite(eng, 4, 8)
	e := NewEngine(cl, store)
	e.CallCaching = true
	def := mustParse(t, sampleWDL)
	r1, err := e.Run(def, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHits != 0 {
		t.Fatalf("first run cache hits = %d", r1.CacheHits)
	}
	r2, err := e.Run(def, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if r2.ShardsExecuted != 0 || r2.CacheHits != def.TotalShards() {
		t.Fatalf("second run executed %d shards with %d hits", r2.ShardsExecuted, r2.CacheHits)
	}
	if r2.Makespan != 0 {
		t.Fatalf("cached makespan = %v, want 0", r2.Makespan)
	}
}

func TestCallCachingInvalidatedByUpstreamChange(t *testing.T) {
	eng := sim.NewEngine()
	cl, store := testSite(eng, 4, 8)
	e := NewEngine(cl, store)
	e.CallCaching = true
	def := mustParse(t, sampleWDL)
	if _, err := e.Run(def, "a"); err != nil {
		t.Fatal(err)
	}
	changed := mustParse(t, strings.Replace(sampleWDL, "task filter cpu=2 mem=4G dur=10m", "task filter cpu=2 mem=4G dur=12m", 1))
	r, err := e.Run(changed, "a")
	if err != nil {
		t.Fatal(err)
	}
	if r.ShardsExecuted != changed.TotalShards() {
		t.Fatalf("upstream change reused cache: executed=%d", r.ShardsExecuted)
	}
}

func TestCallCachingDisabled(t *testing.T) {
	eng := sim.NewEngine()
	cl, store := testSite(eng, 4, 8)
	e := NewEngine(cl, store)
	def := mustParse(t, sampleWDL)
	e.Run(def, "a")
	r2, _ := e.Run(def, "a")
	if r2.CacheHits != 0 || r2.ShardsExecuted != def.TotalShards() {
		t.Fatal("caching happened while disabled")
	}
}

func TestFusionReducesShardsAndTime(t *testing.T) {
	// The §6.1 case: 4 overhead-dominated scattered tasks fused into one.
	text := `
workflow jgi
container docker://jgi/x@sha256:aa
task setup dur=60s overhead=30s
task s1 dur=25s overhead=400s after=setup scatter=24
task s2 dur=25s overhead=400s after=s1 scatter=24
task s3 dur=25s overhead=400s after=s2 scatter=24
task s4 dur=25s overhead=400s after=s3 scatter=24
task final dur=60s overhead=30s after=s4
`
	def := mustParse(t, text)
	fused, err := Fuse(def, []string{"s1", "s2", "s3", "s4"})
	if err != nil {
		t.Fatal(err)
	}
	shardCut := 1 - float64(fused.TotalShards())/float64(def.TotalShards())
	if shardCut < 0.6 || shardCut > 0.8 {
		t.Fatalf("shard reduction = %.2f, want ~0.71", shardCut)
	}

	run := func(d *WorkflowDef) *RunReport {
		eng := sim.NewEngine()
		cl, store := testSite(eng, 4, 8)
		e := NewEngine(cl, store)
		rep, err := e.Run(d, "u")
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	orig := run(def)
	opt := run(fused)
	timeCut := 1 - opt.TaskSeconds/orig.TaskSeconds
	if timeCut < 0.6 || timeCut > 0.8 {
		t.Fatalf("execution-time reduction = %.2f, want ~0.70", timeCut)
	}
	if opt.Makespan >= orig.Makespan {
		t.Fatalf("fused makespan %v not better than %v", opt.Makespan, orig.Makespan)
	}
}

func TestFusionValidation(t *testing.T) {
	def := mustParse(t, sampleWDL)
	if _, err := Fuse(def, []string{"align"}); err == nil {
		t.Fatal("single-task fusion accepted")
	}
	if _, err := Fuse(def, []string{"align", "ghost"}); err == nil {
		t.Fatal("unknown member accepted")
	}
	if _, err := Fuse(def, []string{"merge", "filter"}); err == nil {
		t.Fatal("non-linear chain accepted")
	}
	// Interior consumption: c reads a, but a is interior to (a,b).
	branchy := mustParse(t, `
workflow w
task a dur=10s
task b dur=10s after=a
task c dur=10s after=a
`)
	if _, err := Fuse(branchy, []string{"a", "b"}); err == nil {
		t.Fatal("fusion hiding an externally consumed output accepted")
	}
}

func TestFusedWorkflowEquivalentStructure(t *testing.T) {
	def := mustParse(t, sampleWDL)
	fused, err := Fuse(def, []string{"filter", "align"})
	if err != nil {
		t.Fatal(err)
	}
	ft := fused.Task("filter+align")
	if ft == nil {
		t.Fatal("fused task missing")
	}
	if ft.Cores != 4 || ft.MemBytes != 8e9 {
		t.Fatalf("fused resources = %d/%v, want max of members", ft.Cores, ft.MemBytes)
	}
	if ft.DurationSec != 600+1800 {
		t.Fatalf("fused duration = %v", ft.DurationSec)
	}
	merge := fused.Task("merge")
	if len(merge.After) != 1 || merge.After[0] != "filter+align" {
		t.Fatalf("merge deps = %v", merge.After)
	}
}

func TestFairShareCapProtectsSmallUser(t *testing.T) {
	bigWDL := `
workflow big
task flood dur=300s overhead=0s scatter=64
`
	smallWDL := `
workflow small
task quick dur=60s overhead=0s
`
	run := func(cap int) (bigMs, smallMs sim.Time) {
		eng := sim.NewEngine()
		cl, store := testSite(eng, 2, 4) // 8 cores: heavily contended
		e := NewEngine(cl, store)
		e.MaxConcurrentPerUser = cap
		bigRep, bigRun, err := e.Start(mustParse(t, bigWDL), "hog")
		if err != nil {
			t.Fatal(err)
		}
		smallRep, smallRun, err := e.Start(mustParse(t, smallWDL), "alice")
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if bigRun.Err() != nil || smallRun.Err() != nil {
			t.Fatal("workflows stalled")
		}
		return bigRep.Makespan, smallRep.Makespan
	}
	_, smallUncapped := run(0)
	_, smallCapped := run(4)
	if smallCapped >= smallUncapped {
		t.Fatalf("cap did not protect small user: capped=%v uncapped=%v", smallCapped, smallUncapped)
	}
	// Uncapped, the hog's 64 five-minute shards run first on 8 cores:
	// alice waits many waves.
	if smallUncapped < 1000 {
		t.Fatalf("uncapped small makespan = %v, expected starvation", smallUncapped)
	}
}

func TestLintFindings(t *testing.T) {
	def := mustParse(t, `
workflow bad
task nocontainer dur=10m overhead=20m scatter=200
task latest dur=10h container=docker://x:latest
`)
	findings := Lint(def)
	rules := map[string]bool{}
	for _, f := range findings {
		rules[f.Rule] = true
	}
	for _, want := range []string{"containerization", "version-pinning", "inappropriate-parallelism", "fusion-candidate", "unconstrained-parallelism"} {
		if !rules[want] {
			t.Errorf("missing lint rule %q in %v", want, findings)
		}
	}
}

func TestLintCleanWorkflowQuiet(t *testing.T) {
	def := mustParse(t, `
workflow good
container docker://jgi/x@sha256:aa
task a dur=40m overhead=1m scatter=8
task b dur=35m overhead=1m after=a
`)
	if findings := Lint(def); len(findings) != 0 {
		t.Fatalf("clean workflow produced findings: %v", findings)
	}
}

func TestLintMonolith(t *testing.T) {
	def := mustParse(t, `
workflow mono
container docker://x@sha256:aa
task everything dur=10h overhead=1m
`)
	found := false
	for _, f := range Lint(def) {
		if f.Rule == "modularization" {
			found = true
		}
	}
	if !found {
		t.Fatal("monolith not flagged")
	}
}

func TestServiceMultiSite(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	clA, _ := testSite(eng, 4, 8)
	svc.AddSite("perlmutter", clA)
	clB := cluster.New(eng, "aws", cluster.Spec{
		Type:  cluster.NodeType{Name: "vm", Cores: 8, MemBytes: 64e9},
		Count: 4,
	})
	svc.AddSite("aws", clB)
	if svc.sites["aws"] == nil || svc.sites["perlmutter"] == nil || svc.sites["dori"] != nil {
		t.Fatal("registered sites do not match AddSite's calls")
	}

	svc.Central().Put(storage.File{Name: "reads.fastq", Bytes: 5e9})
	svc.Transfer().SetLink("jaws-central", "perlmutter-scratch", storage.Link{BandwidthBps: 1e9, LatencySec: 2})

	def := mustParse(t, sampleWDL)
	res, err := svc.Submit(def, "alice", "perlmutter", []string{"reads.fastq"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ShardsExecuted != def.TotalShards() {
		t.Fatalf("executed %d shards", res.Report.ShardsExecuted)
	}
	if res.StagingSec < 7 { // 2s latency + 5e9/1e9
		t.Fatalf("staging = %v, want >= 7s", res.StagingSec)
	}
	// Results landed centrally.
	if got := len(svc.Central().List()); got < 2 {
		t.Fatalf("central results = %d", got)
	}
}

func TestServiceErrors(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	cl, _ := testSite(eng, 2, 4)
	svc.AddSite("x", cl)
	def := mustParse(t, sampleWDL)
	if _, err := svc.Submit(def, "u", "nowhere", nil); err == nil {
		t.Fatal("unknown site accepted")
	}
	if _, err := svc.Submit(def, "u", "x", []string{"missing-input"}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestEngineRecoversFromNodeFailure(t *testing.T) {
	eng := sim.NewEngine()
	cl, store := testSite(eng, 2, 4)
	e := NewEngine(cl, store)
	def := mustParse(t, `
workflow w
task long dur=500s overhead=0s
`)
	eng.At(100, func() {
		// Fail whichever node runs the task.
		for _, n := range cl.Nodes() {
			if n.FreeCores() < n.Type.Cores {
				cl.FailNode(n)
				return
			}
		}
	})
	rep, err := e.Run(def, "u")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 600 { // 100 wasted + 500 rerun
		t.Fatalf("makespan = %v, want 600", rep.Makespan)
	}
}

func TestLintAndSeverityStrings(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Error.String() != "error" {
		t.Fatal("severity strings")
	}
	f := Finding{Rule: "r", Severity: Warning, Task: "", Message: "m"}
	if got := f.String(); got != "[warning] r (workflow): m" {
		t.Fatalf("finding string = %q", got)
	}
}

func TestServiceSiteAccessor(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	cl, _ := testSite(eng, 1, 4)
	s := svc.AddSite("x", cl)
	if svc.sites["x"] != s {
		t.Fatal("AddSite did not register the site it returned")
	}
}

// placementRecorder is FIFO that remembers which node each submission ID
// was placed on.
type placementRecorder struct {
	rm.FIFO
	placed map[string]*cluster.Node
}

func (p *placementRecorder) PickNode(s *rm.Submission, candidates []*cluster.Node) *cluster.Node {
	n := p.FIFO.PickNode(s, candidates)
	if n != nil {
		p.placed[s.ID()] = n
	}
	return n
}

// A node failure under running scatter shards reruns exactly those shards
// as their second attempts ("#2"), counts every shard once, and completes.
func TestEngineRerunsShardsOnNodeFailure(t *testing.T) {
	eng := sim.NewEngine()
	cl, store := testSite(eng, 2, 4)
	e := NewEngine(cl, store)
	rec := &placementRecorder{placed: map[string]*cluster.Node{}}
	e.mgr.SetStrategy(rec)
	def := mustParse(t, `
workflow sc
task fan dur=100s overhead=0s scatter=6
task merge dur=10s overhead=0s after=fan
`)
	var lost []string
	eng.At(50, func() {
		victim := cl.Nodes()[0]
		for id, n := range rec.placed {
			if n == victim {
				lost = append(lost, id)
			}
		}
		cl.FailNode(victim)
	})
	rep, err := e.Run(def, "u")
	if err != nil {
		t.Fatal(err)
	}
	// First fit packs shards 0-3 onto node 0 and 4-5 onto node 1.
	if len(lost) != 4 {
		t.Fatalf("%d shards lost on the failed node, want 4", len(lost))
	}
	for _, id := range lost {
		retry := id + "#2"
		if rec.placed[retry] == nil {
			t.Errorf("shard %s was not rerun as %s", id, retry)
		} else if rec.placed[retry] == cl.Nodes()[0] {
			t.Errorf("%s placed on the failed node", retry)
		}
	}
	retries := 0
	for id := range rec.placed {
		if strings.HasSuffix(id, "#2") {
			retries++
		}
	}
	if retries != len(lost) {
		t.Fatalf("%d retry submissions, want %d (one per lost shard)", retries, len(lost))
	}
	if staged := len(store.List()); rep.ShardsExecuted != 7 || rep.FilesystemOps != 7 || staged != 7 {
		t.Fatalf("shards=%d fsops=%d staged=%d, want 7 each", rep.ShardsExecuted, rep.FilesystemOps, staged)
	}
	// Node 1 reruns two lost shards over [50,150] beside its own, the
	// other two over [100,200] once its own finish; merge runs [200,210].
	if rep.Makespan != 210 {
		t.Fatalf("makespan = %v, want 210", rep.Makespan)
	}
}
