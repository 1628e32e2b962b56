// cws_scheduling: the §3 story — the same workflow on the same cluster,
// scheduled without and with workflow awareness through the Common Workflow
// Scheduler Interface.
package main

import (
	"fmt"
	"log"

	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
)

func main() {
	w := dag.RNASeqLike(randx.New(1990), 12,
		dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4})

	// One session per strategy; nil is the workflow-oblivious FIFO baseline.
	strategies := []cwsi.Strategy{nil, cwsi.Rank{}, cwsi.FileSize{}, cwsi.HEFT{}}
	results := make([]*core.Result, len(strategies))
	for i, s := range strategies {
		var err error
		results[i], err = core.Run(&core.KubernetesEnv{Nodes: 2, CoresPerNode: 8, Strategy: s}, w, nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	fifo := results[0].MakespanSec
	fmt.Println("strategy        makespan   vs FIFO")
	for i, name := range []string{"fifo", "rank", "filesize-desc", "heft"} {
		ms := results[i].MakespanSec
		fmt.Printf("%-14s %8.0fs   %+6.1f%%\n", name, ms, (ms-fifo)/fifo*100)
	}

	// The CWS also centralizes provenance (§3.3): export the rank run's
	// PROV document.
	prov := results[1].Provenance.(*provenance.Store)
	doc, err := prov.ExportPROV()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprovenance: %d task records, %d-byte PROV export\n", prov.Len(), len(doc))
}
