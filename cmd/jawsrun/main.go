// Command jawsrun reproduces the §6 JAWS migration results: the task-fusion
// case (≈70 % execution-time cut, ≈71 % fewer shards), the call-caching
// benefit, and the fair-share anti-pattern on a shared engine. With -lint it
// also runs the migration linter over a deliberately bad legacy workflow.
//
// Usage:
//
//	jawsrun [-lint] [-stats] [-json]
package main

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/compose"
	"hhcw/internal/driver"
	"hhcw/internal/jaws"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// legacyWDL is the §6.1 shape: four overhead-dominated scattered tasks.
const legacyWDL = `
workflow legacy-annotation
container docker://jgi/annotate@sha256:0ddba11
task setup dur=60s overhead=30s
task s1 dur=25s overhead=400s after=setup scatter=24
task s2 dur=25s overhead=400s after=s1 scatter=24
task s3 dur=25s overhead=400s after=s2 scatter=24
task s4 dur=25s overhead=400s after=s3 scatter=24
task final dur=60s overhead=30s after=s4
`

const badWDL = `
workflow adhoc-port
task everything dur=10h overhead=2m
task spray dur=4m overhead=20m after=everything scatter=250 container=docker://lab/tool:latest
`

// runStats demonstrates §6.1's organization-wide performance-metrics
// collection: several users submit through one central service; the service
// aggregates per-user shard counts, cache hits, and task time.
func runStats(app *driver.App, rep *compose.Report) {
	eng := sim.NewEngine()
	svc := jaws.NewService(eng)
	cl, _ := newSite(eng)
	svc.AddSite("perlmutter", cl)
	def, err := jaws.Parse(legacyWDL)
	app.Check(err)
	fused, _ := jaws.Fuse(def, []string{"s1", "s2", "s3", "s4"})
	for _, sub := range []struct {
		user string
		def  *jaws.WorkflowDef
	}{
		{"dcassol", fused}, {"dcassol", fused}, // second run hits the call cache
		{"jfroula", def},
		{"ekirton", fused},
	} {
		_, err := svc.Submit(sub.def, sub.user, "perlmutter", nil)
		app.Check(err)
	}
	s := rep.Section("§6.1: organization-wide metrics from the central service")
	s.Addf("%-10s %6s %8s %10s %12s %8s", "user", "runs", "shards", "cache hits", "task-sec", "fs ops")
	for _, u := range svc.Stats() {
		s.Addf("%-10s %6d %8d %10d %12.0f %8d",
			u.User, u.Submissions, u.Shards, u.CacheHits, u.TaskSeconds, u.FsOps)
	}
}

func newSite(eng *sim.Engine) (*cluster.Cluster, *storage.Store) {
	cl := cluster.New(eng, "perlmutter", cluster.Spec{
		Type:  cluster.NodeType{Name: "cpu", Cores: 16, MemBytes: 256e9},
		Count: 4,
	})
	return cl, storage.NewStore("scratch", 0, 0, 0)
}

func main() {
	app := driver.New("jawsrun", "jawsrun [-lint] [-stats] [-json]")
	lint := app.Bool("lint", false, "lint a legacy workflow against §6 anti-patterns")
	stats := app.Bool("stats", false, "run several users through the central service and print org-wide metrics")
	app.NoFaults()
	app.Parse()
	rep := app.NewReport()

	if *stats {
		runStats(app, rep)
		app.Emit(rep)
		return
	}

	if *lint {
		def, err := jaws.Parse(badWDL)
		app.Check(err)
		s := rep.Section("migration linter (§6 patterns and anti-patterns)")
		for _, f := range jaws.Lint(def) {
			s.Addf("  %s", f)
		}
		app.Emit(rep)
		return
	}

	def, err := jaws.Parse(legacyWDL)
	app.Check(err)
	fused, err := jaws.Fuse(def, []string{"s1", "s2", "s3", "s4"})
	app.Check(err)

	run := func(d *jaws.WorkflowDef) *jaws.RunReport {
		eng := sim.NewEngine()
		cl, store := newSite(eng)
		e := jaws.NewEngine(cl, store)
		r, err := e.Run(d, "jgi")
		app.Check(err)
		return r
	}
	orig := run(def)
	opt := run(fused)

	s := rep.Section("§6.1 claim: task fusion (4 tasks → 1)")
	s.Addf("%-12s %10s %10s %12s %10s", "", "makespan", "shards", "task-sec", "fs ops")
	s.Addf("%-12s %9.0fs %10d %11.0fs %10d", "original", float64(orig.Makespan), orig.ShardsExecuted, orig.TaskSeconds, orig.FilesystemOps)
	s.Addf("%-12s %9.0fs %10d %11.0fs %10d", "fused", float64(opt.Makespan), opt.ShardsExecuted, opt.TaskSeconds, opt.FilesystemOps)
	s.Addf("execution-time reduction: %.0f%%  (paper: 70%%)", (1-opt.TaskSeconds/orig.TaskSeconds)*100)
	s.Addf("shard reduction:          %.0f%%  (paper: 71%%)",
		(1-float64(opt.ShardsExecuted)/float64(orig.ShardsExecuted))*100)
	rep.AddRun(compose.FromJAWS("original", orig))
	rep.AddRun(compose.FromJAWS("fused", opt))

	// Call caching: rerun after an input-preserving resubmission.
	eng := sim.NewEngine()
	cl, store := newSite(eng)
	e := jaws.NewEngine(cl, store)
	e.CallCaching = true
	first, _ := e.Run(fused, "jgi")
	second, _ := e.Run(fused, "jgi")
	cs := rep.Section("call caching (rerun of an identical workflow)")
	cs.Addf("first run : %.0fs, %d shards executed", float64(first.Makespan), first.ShardsExecuted)
	cs.Addf("second run: %.0fs, %d shards executed, %d cache hits",
		float64(second.Makespan), second.ShardsExecuted, second.CacheHits)
	rep.AddRun(compose.FromJAWS("cached-rerun", second))

	// Fair share: a flood user vs a small user on one shared engine.
	fs := rep.Section("§6.2 claim: fair share on a shared Cromwell-like engine")
	flood, _ := jaws.Parse("workflow flood\ntask f dur=300s overhead=0s scatter=64")
	small, _ := jaws.Parse("workflow small\ntask q dur=60s overhead=0s")
	for _, cap := range []int{0, 8} {
		eng := sim.NewEngine()
		cl := cluster.New(eng, "shared", cluster.Spec{
			Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 64e9},
			Count: 2,
		})
		e := jaws.NewEngine(cl, storage.NewStore("s", 0, 0, 0))
		e.MaxConcurrentPerUser = cap
		fr, frun, err := e.Start(flood, "hog")
		app.Check(err)
		sr, srun, err := e.Start(small, "alice")
		app.Check(err)
		eng.Run()
		app.Check(frun.Err())
		app.Check(srun.Err())
		label := "no per-user cap (anti-pattern)"
		if cap > 0 {
			label = fmt.Sprintf("per-user cap = %d", cap)
		}
		fs.Addf("%-32s hog %6.0fs, alice %6.0fs", label, float64(fr.Makespan), float64(sr.Makespan))
	}
	app.Emit(rep)
}
