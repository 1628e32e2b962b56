// Command wfsim runs a generated workflow on a chosen environment through
// the public composable-workflow core — the "one composition, any
// environment" demonstration of the paper's title. With -sweep N it runs the
// same (workflow, environment) pair over N consecutive seeds on a parallel
// worker pool and prints distributional aggregates instead of one anecdote.
//
// Usage:
//
//	wfsim [-workflow montage|epigenomics|forkjoin|rnaseq|layered]
//	      [-registry ENTRY] [-expand static|lazy]
//	      [-env k8s|k8s-cws|hpc|cloud] [-size 16] [-nodes 4] [-cores 8] [-seed 1]
//	      [-faults none|mtbf|spot|storm]
//	      [-dot out.dot] [-dot-expand-depth N]
//	      [-trace out.json] [-provenance out.json] [-json]
//	      [-sweep N] [-workers W]
//
// -registry runs a named entry of the builtin workflow registry instead of a
// synthetic family; the entry (and any workflows it references) resolves
// through the compose spine. -expand picks how WorkflowRef tasks resolve:
// static splices them at compile time, lazy drives a dag.RefExpander through
// the streaming run path at runtime. Both produce bit-identical fingerprints.
// -dot writes the workflow's Graphviz rendering and exits; in registry mode,
// -dot-expand-depth controls how many reference levels are expanded (refs
// below the cutoff render as collapsed boxes).
// -trace / -provenance write run artifacts (provenance-enabled envs only).
// -sweep N runs seeds seed..seed+N-1 concurrently on W workers (default
// NumCPU); the aggregate report is bit-identical for any W.
// -faults injects a deterministic failure profile (node crashes, spot-style
// reclaims, transient task failures, I/O slowdowns) into the k8s / k8s-cws
// substrate; tasks recover under the default retry policy and chaos sweeps
// stay bit-identical for any -workers.
// -json emits the whole report as machine-readable JSON (docs/report-schema.md).
package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"hhcw/internal/compose"
	"hhcw/internal/core"
	"hhcw/internal/dag"
	"hhcw/internal/driver"
	"hhcw/internal/metrics"
	"hhcw/internal/randx"
	"hhcw/internal/sweep"
)

func main() {
	app := driver.New("wfsim",
		"wfsim [-workflow FAMILY | -registry ENTRY] [-expand MODE] [-env ENV] [-size N] [-nodes N] [-cores N] [-seed S] [-faults P] [-sweep N] [-workers W] [-dot F] [-trace F] [-provenance F] [-json]")
	reg := driver.Registry()
	workflow := app.String("workflow", "montage", "workflow family: "+driver.WorkflowFamilies)
	registryName := app.String("registry", "", "run a registry entry instead of -workflow: "+strings.Join(reg.Names(), "|"))
	expandMode := app.String("expand", "static", "registry expansion: static (compile-time splice) | lazy (runtime dag.RefExpander)")
	envName := app.String("env", "k8s", "environment: "+driver.EnvNames)
	size := app.Int("size", 16, "workflow width parameter")
	nodes := app.Int("nodes", 4, "nodes (or max cloud instances)")
	cores := app.Int("cores", 8, "cores per node")
	sweepN := app.Int("sweep", 0, "run this many consecutive seeds as a parallel ensemble (0 = single run)")
	workers := app.Int("workers", runtime.NumCPU(), "sweep worker pool size")
	dotOut := app.String("dot", "", "write the workflow's DOT rendering to this file and exit")
	dotDepth := app.Int("dot-expand-depth", 0, "with -dot in registry mode: expand refs this many levels (0 = collapsed boxes)")
	app.Parse()

	if *expandMode != "static" && *expandMode != "lazy" {
		app.Usagef("unknown -expand mode %q (want static|lazy)", *expandMode)
	}
	if *expandMode == "lazy" && *registryName == "" {
		app.Usagef("-expand lazy needs -registry (synthetic families have no references to expand)")
	}
	if *registryName != "" {
		if _, ok := reg.Lookup(*registryName); !ok {
			app.Usagef("unknown registry entry %q (registered: %s)", *registryName, strings.Join(reg.Names(), ", "))
		}
	}

	// The environment is resolved before -dot so an unsupported -env/-faults
	// pairing is refused before any output is written.
	faults := app.Faults()
	espec, err := driver.BuildEnv(*envName, *nodes, *cores, faults)
	if err != nil {
		app.Usagef("%v", err)
	}

	// Workflow spec: a synthetic family, or a registry entry whose per-seed
	// binding flows through the WorkflowRef's params. In lazy mode Gen keeps
	// the root collapsed — the LazyEnv expands it at runtime.
	var wspec *sweep.WorkflowSpec
	if *registryName != "" {
		name := *registryName
		mode := *expandMode
		wspec = &sweep.WorkflowSpec{Name: name, Gen: func(rng *randx.Source) *dag.Workflow {
			root := driver.RefRoot(name, rng.Int63())
			if mode == "lazy" {
				return root
			}
			w, err := reg.Expand(root)
			if err != nil {
				panic(fmt.Sprintf("wfsim: expanding registry entry %q: %v", name, err))
			}
			return w
		}}
	} else {
		ws, err := driver.WorkflowFamily(*workflow, *size, 0)
		if err != nil {
			app.Usagef("%v", err)
		}
		wspec = ws
	}

	if *dotOut != "" {
		var w *dag.Workflow
		if *registryName != "" {
			var err error
			w, err = reg.ExpandDepth(driver.RefRoot(*registryName, app.Seed()), *dotDepth)
			app.Check(err)
		} else {
			w = wspec.Gen(randx.New(app.Seed()))
		}
		app.Check(os.WriteFile(*dotOut, []byte(w.ToDOT()), 0o644))
		app.Logf("wrote %s (%d tasks; render with `dot -Tsvg`)", *dotOut, w.Len())
		return
	}

	// A lazily expanded run has no whole DAG for the CWS to rank — plain k8s
	// only.
	if *expandMode == "lazy" && *registryName != "" {
		if *envName != "k8s" {
			app.Usagef("-expand lazy runs on the streaming path and supports -env k8s only")
		}
		n, c := *nodes, *cores
		espec = &sweep.EnvSpec{Name: "k8s", New: func() core.Environment {
			return &compose.LazyEnv{
				KubernetesEnv: core.KubernetesEnv{Nodes: n, CoresPerNode: c, Faults: faults},
				Registry:      reg,
			}
		}}
	}

	rep := app.NewReport()
	runLabel := *workflow
	if *registryName != "" {
		runLabel = *registryName
	}

	if *sweepN > 0 {
		if *workers <= 0 {
			*workers = runtime.NumCPU()
		}
		sw, err := sweep.Run(sweep.Config{
			Workflows: []sweep.WorkflowSpec{*wspec},
			Envs:      []sweep.EnvSpec{*espec},
			Seeds:     sweep.Seeds(app.Seed(), *sweepN),
			Workers:   *workers,
			Progress: func(done, total int) {
				if done%50 == 0 || done == total {
					app.Logf("%d/%d runs complete", done, total)
				}
			},
		})
		app.Check(err)
		s := rep.Section("")
		s.Addf("sweep         : %d seeds [%d..%d] on %d workers",
			*sweepN, app.Seed(), app.Seed()+int64(*sweepN)-1, *workers)
		if *registryName != "" {
			s.Addf("registry      : %s (-expand %s)", *registryName, *expandMode)
		}
		s.AddTable(sw.Table())
		if ft := sw.FaultTable(); ft != "" {
			rep.Section(fmt.Sprintf("failure / recovery distribution (-faults %s)", app.FaultsName())).AddTable(ft)
		}
		for _, r := range sw.Runs {
			res := r.Result
			rep.AddRun(compose.FromResult(fmt.Sprintf("%s/%s/seed%d", r.Workflow, r.Env, r.Seed), &res))
		}
		app.Emit(rep)
		return
	}

	rng := randx.New(app.Seed())
	w := wspec.Gen(rng)
	// In lazy mode w is the collapsed root; describe the expansion (the same
	// workflow the run executes) so the report reads identically in both
	// modes.
	display := w
	if *registryName != "" && *expandMode == "lazy" {
		var err error
		display, err = reg.Expand(w)
		app.Check(err)
	}
	// The run's substrate randomness forks off the generator source right
	// after generation, as in a sweep, so a single run reproduces its sweep
	// cell exactly.
	res, err := core.Run(espec.New(), w, rng.Fork())
	app.Check(err)
	app.WriteArtifacts(res)

	cp, _ := display.CriticalPath(dag.NominalDur)
	rep.Workflow = compose.DescribeWorkflow(display)
	rep.AddRun(compose.FromResult(runLabel, res))
	s := rep.Section("")
	s.Addf("workflow      : %s (%d tasks, %d edges)", display.Name, display.Len(), display.EdgeCount())
	if *registryName != "" {
		s.Addf("expansion     : %s (registry entry %q)", *expandMode, *registryName)
	}
	s.Addf("environment   : %s", res.Environment)
	s.Addf("makespan      : %s", metrics.HumanSeconds(res.MakespanSec))
	s.Addf("critical path : %s (lower bound)", metrics.HumanSeconds(cp))
	s.Addf("utilization   : %.1f%%", res.UtilizationCore*100)
	if faults.Enabled() {
		s.Addf("faults        : %s — %d failed attempts, %d retries (%s backoff), %d terminal",
			app.FaultsName(), res.FailedAttempts, res.Retries,
			metrics.HumanSeconds(res.BackoffSec), res.TerminalFailures)
	}
	app.Emit(rep)
}
