package compose_test

import (
	"runtime"
	"testing"

	"hhcw/internal/atlas"
	"hhcw/internal/compose"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/exaam"
	"hhcw/internal/fault"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/sweep"
	"hhcw/internal/trace"
)

// composedAtlasUQ builds the flagship composed workflow from a seeded
// source: an Atlas salmon pipeline over a generated catalog feeding the
// ExaAM Stage-3 UQ ensemble. Pure function of rng — the sweep contract.
func composedAtlasUQ(rng *randx.Source) *dag.Workflow {
	catalog := atlas.GenerateCatalog(rng, 2)
	cfg := exaam.Config{
		GridDim: 2, GridLevel: 1, MeltPoolCases: 1,
		MicroParams: 1, LoadingDirections: 2, Temperatures: 1, RVEs: 2,
		Seed: rng.Int63(),
	}
	w, err := compose.Pipeline("atlas-uq",
		compose.Stage{Name: "atlas", From: atlas.PipelineSpec{Runs: catalog}},
		compose.Stage{Name: "uq", From: exaam.Stage3Pipeline(cfg)},
	)
	if err != nil {
		panic(err)
	}
	return w
}

// TestComposedRunEndToEnd executes the composed workflow through a fault-
// injecting CWS-enabled environment: retries, provenance, and tracing all
// come from the substrate, none from the composition layer.
func TestComposedRunEndToEnd(t *testing.T) {
	rng := randx.New(42)
	w := composedAtlasUQ(rng)
	env := &core.KubernetesEnv{
		Nodes: 4, CoresPerNode: 16,
		Strategy: cwsi.Rank{},
		Faults:   fault.MTBF(),
	}
	res, err := core.Run(env, w, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != w.Len() || res.MakespanSec <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	store, ok := res.Provenance.(*provenance.Store)
	if !ok || store.Len() == 0 {
		t.Fatalf("composed run did not emit provenance (%T)", res.Provenance)
	}
	doc := trace.FromProvenance(store)
	if len(doc.TraceEvents) == 0 {
		t.Fatal("composed run did not emit trace events")
	}
	if _, err := doc.JSON(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ExportPROV(); err != nil {
		t.Fatal(err)
	}

	// Bit-identical repeat: same seed, fresh environment.
	rng2 := randx.New(42)
	w2 := composedAtlasUQ(rng2)
	env2 := &core.KubernetesEnv{
		Nodes: 4, CoresPerNode: 16,
		Strategy: cwsi.Rank{},
		Faults:   fault.MTBF(),
	}
	res2, err := core.Run(env2, w2, rng2.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != res2.Fingerprint() {
		t.Fatalf("composed run not reproducible:\n%s\n%s", res.Fingerprint(), res2.Fingerprint())
	}
}

// TestComposedSweepDeterminism is the acceptance bar: a 50-seed sweep over
// the composed workflow yields a bit-identical report at 1 worker and at
// NumCPU workers, faults and retries included.
func TestComposedSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("50-seed sweep")
	}
	cfg := sweep.Config{
		Workflows: []sweep.WorkflowSpec{{Name: "atlas-uq", Gen: composedAtlasUQ}},
		Envs: []sweep.EnvSpec{{Name: "k8s-cws-mtbf", New: func() core.Environment {
			return &core.KubernetesEnv{
				Nodes: 4, CoresPerNode: 16,
				Strategy: cwsi.Rank{},
				Faults:   fault.MTBF(),
			}
		}}},
		Seeds: sweep.Seeds(1, 50),
	}

	cfg.Workers = 1
	serial, err := sweep.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = runtime.NumCPU()
	parallel, err := sweep.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fingerprint() != parallel.Fingerprint() {
		t.Fatal("composed sweep fingerprint differs between 1 worker and NumCPU workers")
	}
	// Faults must actually have fired for this to mean anything.
	if c := serial.Cells[0]; !c.Faulty() {
		t.Fatal("fault profile never fired across 50 seeds; determinism check is vacuous")
	}
}
