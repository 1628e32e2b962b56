package bench

import "fmt"

// MetricDef describes one reported metric as BENCHMARK.json lists it.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// EndToEnd are the metrics an untraced run reports, on every workload.
var EndToEnd = []MetricDef{
	{"tasks_per_s", "tasks/s", "higher", 0.25},
	{"runs_per_s", "runs/s", "higher", 0.25},
	{"run_p50_ms", "ms", "lower", 0.25},
	{"run_p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// modules are what a CPU sample is attributed to: the innermost
// hhcw/internal package on its stack, the benchmark's own code, the Go
// runtime when no hhcw frame is on the stack, or other for the remaining
// hhcw packages.
var modules = []string{
	"bench", "cluster", "compose", "core", "cwsi", "dag", "fault", "jaws", "metrics",
	"predict", "provenance", "randx", "rm", "runtime", "service", "sim", "sweep", "other",
}

// layerDefs are the per-layer metrics other than the module self times.
var layerDefs = []MetricDef{
	{Name: "cluster.queries_per_task", Unit: "count", Better: "lower"},
	{Name: "cluster.query_hit_pct", Unit: "%", Better: "higher"},
	{Name: "cluster.candidates_per_pick", Unit: "count", Better: "lower"},
	{Name: "rm.dispatch_passes_per_task", Unit: "count", Better: "lower"},
	{Name: "rm.pending_per_pass", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_task", Unit: "count", Better: "lower"},
	{Name: "dag.next_calls_per_task", Unit: "count", Better: "lower"},
	{Name: "dag.next_hit_pct", Unit: "%", Better: "higher"},
	{Name: "dag.expander_pct", Unit: "%", Better: "lower"},
	{Name: "dag.generate_pct", Unit: "%", Better: "lower"},
	{Name: "cwsi.priority_calls_per_task", Unit: "count", Better: "lower"},
	{Name: "cwsi.pick_calls_per_task", Unit: "count", Better: "lower"},
	{Name: "provenance.records_per_sim", Unit: "count", Better: "lower"},
	{Name: "predict.warm_placements_per_sim", Unit: "count", Better: "higher"},
	{Name: "fault.failed_attempts_per_sim", Unit: "count", Better: "lower"},
	{Name: "fault.retries_per_sim", Unit: "count", Better: "lower"},
	{Name: "service.admitted_per_run", Unit: "count", Better: "higher"},
	{Name: "service.deferred_per_run", Unit: "count", Better: "lower"},
	{Name: "service.rejected_per_run", Unit: "count", Better: "lower"},
	{Name: "service.tasks_started_per_run", Unit: "count", Better: "higher"},
	{Name: "service.run_pct", Unit: "%", Better: "lower"},
	{Name: "core.sessions_built_per_block", Unit: "count", Better: "lower"},
	{Name: "core.run_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.allocs_per_task", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_task", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// PerLayer are the metrics a traced run reports, on every workload: the
// layer metrics, then each module's share of the CPU profile.
func PerLayer() []MetricDef {
	defs := append([]MetricDef(nil), layerDefs...)
	for _, m := range modules {
		defs = append(defs, MetricDef{Name: m + ".self_pct", Unit: "%", Better: "lower"})
	}
	return defs
}

// layerValues computes the per-layer metrics from a traced child, the
// untraced child that ran the same blocks, and the traced child's CPU
// shares by module. A layer the workload does not reach reads 0.
func layerValues(untraced, traced *ChildResult, shares map[string]float64) map[string]float64 {
	c := traced.Counters
	// Busy shares divide by the plain wall time the spans were timed in;
	// the overhead compares the two children's scaled walls (see gauge.go).
	var units, tasks, wall, scaled, refTasks, refScaled float64
	for _, b := range traced.Blocks {
		units += float64(b.Units)
		tasks += float64(b.Tasks)
		wall += float64(b.WallNS)
		scaled += float64(b.WallNS) * b.Scale
	}
	for _, b := range untraced.Blocks {
		refTasks += float64(b.Tasks)
		refScaled += float64(b.WallNS) * b.Scale
	}
	// A sim is an ensemble run or a contended service run; on the stream
	// workload it is the whole run.
	sims := float64(c.Sims + c.ServiceRuns)
	if sims == 0 {
		sims = units
	}
	busy := func(l layer) float64 { return float64(traced.BusyNS[layerNames[l]]) }
	serviceSelf := 0.0
	if busy(layerService) > 0 {
		serviceSelf = busy(layerService) - busy(layerGenerate)
	}
	f := func(n int64) float64 { return float64(n) }
	rt := untraced.Runtime
	v := map[string]float64{
		"cluster.queries_per_task":        ratio(f(c.PendingScanned), tasks),
		"cluster.query_hit_pct":           100 * ratio(f(c.RMPicks), f(c.PendingScanned)),
		"cluster.candidates_per_pick":     ratio(f(c.RMCandidates+c.CWSICandidates), f(c.RMPicks+c.CWSIPicks)),
		"rm.dispatch_passes_per_task":     ratio(f(c.DispatchPasses), tasks),
		"rm.pending_per_pass":             ratio(f(c.PendingScanned), f(c.DispatchPasses)),
		"sim.events_per_task":             ratio(f(c.Events), tasks),
		"dag.next_calls_per_task":         ratio(f(c.NextCalls), tasks),
		"dag.next_hit_pct":                100 * ratio(f(c.NextHits), f(c.NextCalls)),
		"dag.expander_pct":                100 * ratio(busy(layerExpander), wall),
		"dag.generate_pct":                100 * ratio(busy(layerGenerate), wall),
		"cwsi.priority_calls_per_task":    ratio(f(c.PriorityCalls), tasks),
		"cwsi.pick_calls_per_task":        ratio(f(c.CWSIPicks), tasks),
		"provenance.records_per_sim":      ratio(f(c.ProvRecords), sims),
		"predict.warm_placements_per_sim": ratio(f(c.PredSamples), sims),
		"fault.failed_attempts_per_sim":   ratio(f(c.FailedAttempts), sims),
		"fault.retries_per_sim":           ratio(f(c.Retries), sims),
		"service.admitted_per_run":        ratio(f(c.Admitted), f(c.ServiceRuns)),
		"service.deferred_per_run":        ratio(f(c.Deferred), f(c.ServiceRuns)),
		"service.rejected_per_run":        ratio(f(c.Rejected), f(c.ServiceRuns)),
		"service.tasks_started_per_run":   ratio(f(c.TasksStarted), f(c.ServiceRuns)),
		"service.run_pct":                 100 * ratio(serviceSelf, wall),
		"core.sessions_built_per_block":   ratio(f(c.SessionsBuilt), float64(len(traced.Blocks))),
		"core.run_pct":                    100 * ratio(busy(layerRun), wall),
		"runtime.allocs_per_task":         ratio(float64(rt.AllocObjects), refTasks),
		"runtime.alloc_bytes_per_task":    ratio(float64(rt.AllocBytes), refTasks),
		"runtime.gc_cpu_pct":              100 * ratio(rt.GCCPUSec, rt.UsedCPUSec),
		"trace_overhead_pct":              100 * (ratio(scaled, refScaled) - 1),
	}
	for _, m := range modules {
		v[m+".self_pct"] = shares[m]
	}
	return v
}

// unitOf returns the unit of a catalogued metric.
func unitOf(name string) (string, error) {
	for _, d := range append(EndToEnd, PerLayer()...) {
		if d.Name == name {
			return d.Unit, nil
		}
	}
	return "", fmt.Errorf("bench: metric %q is not in the catalog", name)
}
