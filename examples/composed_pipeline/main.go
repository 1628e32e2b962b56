// Composed pipeline: the flagship composition from the README — an Atlas
// salmon pipeline (§5) feeding the ExaAM Stage-3 UQ ensemble (§4) — expressed
// as workflow references against the builtin registry and run both ways:
// spliced statically at compile time, and expanded lazily at runtime through
// the streaming path. The point: once every subsystem compiles to the same
// DAG form and registers under a name, cross-subsystem composition is a
// WorkflowRef away, and both expansion modes inherit scheduling, fault
// injection, retry, provenance, and the determinism contract — with
// bit-identical fingerprints.
package main

import (
	"fmt"
	"log"

	"hhcw/internal/compose"
	"hhcw/internal/core"
	"hhcw/internal/dag"
	"hhcw/internal/driver"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
)

func main() {
	reg := driver.Registry()
	// The whole composition is one reference: "atlas-uq" is itself defined
	// as two nested refs (atlas -> exaam-uq) in the registry.
	root := driver.RefRoot("atlas-uq", 7)

	// Collapsed view: references render as boxes (wfsim -dot-expand-depth).
	collapsed, err := reg.ExpandDepth(root, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- collapsed DOT (refs as boxes; pipe into `dot -Tsvg`) ---")
	fmt.Println(collapsed.ToDOT())

	// Static expansion: every ref spliced inline, an ordinary dag.Workflow.
	w, err := reg.Expand(root)
	if err != nil {
		log.Fatal(err)
	}
	cp, _ := w.CriticalPath(dag.NominalDur)
	fmt.Printf("expanded %q: %d tasks, %d edges, critical path %.0fs\n",
		w.Name, w.Len(), w.EdgeCount(), cp)

	// Run the static expansion on a fault-injected substrate.
	env := &core.KubernetesEnv{
		Nodes: 4, CoresPerNode: 16,
		Faults: fault.MTBF(),
	}
	res, err := core.Run(env, w, randx.New(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static run: makespan %.0fs, util %.0f%%, %d tasks, %d failed attempts, %d retries\n",
		res.MakespanSec, res.UtilizationCore*100, res.TasksRun, res.FailedAttempts, res.Retries)

	// The same root, expanded lazily at runtime: references splice into the
	// frontier as their inputs resolve.
	lazy := &compose.LazyEnv{
		KubernetesEnv: core.KubernetesEnv{
			Nodes: 4, CoresPerNode: 16,
			Faults: fault.MTBF(),
		},
		Registry: reg,
	}
	lres, err := core.Run(lazy, root, randx.New(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lazy run:   makespan %.0fs, util %.0f%%, %d tasks, %d failed attempts, %d retries\n",
		lres.MakespanSec, lres.UtilizationCore*100, lres.TasksRun, lres.FailedAttempts, lres.Retries)

	// Determinism: static and lazy expansion are bit-identical, every time.
	fmt.Printf("fingerprints identical across expansion modes: %v\n",
		res.Fingerprint() == lres.Fingerprint())
}
