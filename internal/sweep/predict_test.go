package sweep

// Ensemble-level contracts of the §3.4 prediction loop: a cold predictor
// changes no observable byte of a run, and a warm prediction-driven
// ensemble is worker-invariant. The golden 200-seed fingerprints in
// golden_test.go stay untouched because predictor-off results carry no
// prediction suffix at all.

import (
	"strings"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
)

func predictWorkflow() WorkflowSpec {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	return WorkflowSpec{
		Name: "rnaseq-12",
		Gen:  func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 12, opts) },
	}
}

// TestPredictColdStartEquivalence pins the cold-start contract end to end:
// the full prediction stack armed (online training, predicted priority,
// placement refinement, EASY backfill, overrun kills, memory model) but
// held below the warmth gate by an unreachable PredictMinSamples must
// produce per-run results bit-identical to predictor-off — fault-free and
// under the storm chaos profile. Fingerprints are compared after stripping
// the environment-name prefix, the only field that legitimately differs.
func TestPredictColdStartEquivalence(t *testing.T) {
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		faults fault.Profile
	}{
		{"fault-free", fault.Profile{}},
		{"storm", storm},
	} {
		faults := tc.faults
		cfg := Config{
			Workflows: []WorkflowSpec{predictWorkflow()},
			Envs: []EnvSpec{
				{Name: "off", New: func() core.Environment {
					return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true,
						Strategy: cwsi.Baseline{}, Faults: faults}
				}},
				{Name: "cold", New: func() core.Environment {
					return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true,
						Strategy: cwsi.Baseline{}, Faults: faults,
						Predict: "lotaru", PredictMinSamples: 1 << 30}
				}},
			},
			Seeds: Seeds(1, 25),
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Runs are (workflow, env, seed)-ordered: the first 25 are "off",
		// the next 25 are "cold", seed-aligned.
		n := len(cfg.Seeds)
		if len(rep.Runs) != 2*n {
			t.Fatalf("%s: %d runs, want %d", tc.name, len(rep.Runs), 2*n)
		}
		for i := 0; i < n; i++ {
			off, cold := rep.Runs[i], rep.Runs[n+i]
			if cold.Result.PredSamples != 0 {
				t.Fatalf("%s seed %d: cold run warmed (%d samples) — the gate leaked",
					tc.name, cold.Seed, cold.Result.PredSamples)
			}
			offFP := strings.TrimPrefix(off.Result.Fingerprint(), off.Result.Environment)
			coldFP := strings.TrimPrefix(cold.Result.Fingerprint(), cold.Result.Environment)
			if offFP != coldFP {
				t.Errorf("%s seed %d: cold-predictor run diverged from predictor-off:\n off  %s\n cold %s",
					tc.name, off.Seed, offFP, coldFP)
			}
		}
	}
}

// TestPredictWorkerInvariance is the determinism-predict CI lane as a Go
// test: the warm prediction-driven ablation ensemble (every predictor on a
// heterogeneous cluster, 25 seeds, fault-free and storm) must produce
// byte-identical report fingerprints at workers 1, 4, and NumCPU — online
// training order, backfill reservations, and overrun retries included.
func TestPredictWorkerInvariance(t *testing.T) {
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	mkEnv := func(predictor string, faults fault.Profile) func() core.Environment {
		return func() core.Environment {
			return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true,
				Strategy: cwsi.Baseline{}, Predict: predictor, Faults: faults}
		}
	}
	for _, tc := range []struct {
		name   string
		faults fault.Profile
	}{
		{"fault-free", fault.Profile{}},
		{"storm", storm},
	} {
		cfg := Config{
			Workflows: []WorkflowSpec{predictWorkflow()},
			Envs: []EnvSpec{
				{Name: "off", New: mkEnv("off", tc.faults)},
				{Name: "mean", New: mkEnv("mean", tc.faults)},
				{Name: "regression", New: mkEnv("regression", tc.faults)},
				{Name: "lotaru", New: mkEnv("lotaru", tc.faults)},
			},
			Seeds:    Seeds(1, 25),
			Baseline: "off",
		}
		var ref string
		for _, w := range goldenWorkerCounts() {
			cfg.Workers = w
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			fp := rep.Fingerprint()
			if ref == "" {
				ref = fp
				// The warm ensemble must actually be predicting, or the
				// invariance claim is vacuous.
				var warmed bool
				for _, run := range rep.Runs {
					if run.Result.PredSamples > 0 {
						warmed = true
						break
					}
				}
				if !warmed {
					t.Fatalf("%s: no run warmed — ensemble does not exercise the loop", tc.name)
				}
				continue
			}
			if fp != ref {
				rl, fl := strings.Split(ref, "\n"), strings.Split(fp, "\n")
				for i := range rl {
					if i >= len(fl) || rl[i] != fl[i] {
						t.Fatalf("%s workers=%d: first divergence at run %d:\n w1 %s\n wN %s",
							tc.name, w, i, rl[i], fl[i])
					}
				}
				t.Fatalf("%s workers=%d: report length diverged", tc.name, w)
			}
		}
		if ref == "" {
			t.Fatalf("%s: no worker counts ran", tc.name)
		}
	}
}

// hiddenFirstFit forwards a CWS strategy without its rm.FirstFitter
// declaration, so the manager hands it the whole candidate list.
type hiddenFirstFit struct{ cwsi.Strategy }

// TestPredictFirstFitDeclarationInvisible runs the prediction-loop ablation
// twice — Baseline declaring first fit, and Baseline with the declaration
// hidden — fault-free and under storm, and requires byte-identical report
// fingerprints: first-fit placement by index descent is an optimization
// that no run can observe. (Predictor-on cells install cwsi.Predictive,
// which keeps the candidate list either way; the predictor-off cells place
// by descent.)
func TestPredictFirstFitDeclarationInvisible(t *testing.T) {
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []fault.Profile{{}, storm} {
		fingerprint := func(strat cwsi.Strategy) string {
			mkEnv := func(predictor string) func() core.Environment {
				return func() core.Environment {
					return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true,
						Strategy: strat, Predict: predictor, Faults: faults}
				}
			}
			rep, err := Run(Config{
				Workflows: []WorkflowSpec{predictWorkflow()},
				Envs: []EnvSpec{
					{Name: "off", New: mkEnv("off")},
					{Name: "mean", New: mkEnv("mean")},
					{Name: "regression", New: mkEnv("regression")},
					{Name: "lotaru", New: mkEnv("lotaru")},
				},
				Seeds:    Seeds(1, 10),
				Baseline: "off",
			})
			if err != nil {
				t.Fatal(err)
			}
			return rep.Fingerprint()
		}
		declared := fingerprint(cwsi.Baseline{})
		if hidden := fingerprint(hiddenFirstFit{cwsi.Baseline{}}); hidden != declared {
			t.Fatalf("faults %q: hiding the first-fit declaration changed the ablation:\n declared %s\n hidden   %s",
				faults.Name, declared, hidden)
		}
	}
}
