// Quickstart: compose a workflow with the core operators and run the same
// composition on three different environments.
package main

import (
	"fmt"
	"log"

	"hhcw/internal/core"
	"hhcw/internal/metrics"
	"hhcw/internal/randx"
)

func main() {
	// A small analysis pipeline: prepare, fan out 8 workers, merge.
	wf, err := core.Compile("quickstart", core.Sequence(
		core.Task("prepare", core.WithDuration(60), core.WithCores(1)),
		core.Scatter(8, func(i int) core.Node {
			return core.Task("analyze",
				core.WithDuration(300),
				core.WithCores(2),
				core.WithMemory(4e9),
			)
		}),
		core.Task("merge", core.WithDuration(90), core.WithCores(1)),
	))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %q: %d tasks, %d edges\n\n", wf.Name, wf.Len(), wf.EdgeCount())

	envs := []core.Environment{
		&core.KubernetesEnv{Nodes: 2, CoresPerNode: 8},
		&core.HPCEnv{Nodes: 4, CoresPerNode: 8, BootstrapSec: 85},
		&core.CloudEnv{MaxInstances: 8},
	}
	fmt.Printf("%-22s %12s %12s\n", "environment", "makespan", "utilization")
	for _, env := range envs {
		res, err := core.Run(env, wf, randx.New(1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %12s %11.1f%%\n",
			res.Environment, metrics.HumanSeconds(res.MakespanSec), res.UtilizationCore*100)
	}
}
