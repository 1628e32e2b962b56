package bench

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the measurement child, as the e2e
// command does.
func TestMain(m *testing.M) {
	if os.Getenv(ChildEnv) != "" {
		os.Exit(ChildMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the catalog must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogMatchesBenchmarkFile pins BENCHMARK.json to the metrics and
// workloads the code reports.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	ws := Workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, f.Workloads[i].Name, w.Name)
		}
	}
	if len(f.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code has %d", len(f.EndToEnd), len(EndToEnd))
	}
	for i, d := range EndToEnd {
		m := f.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	layers := PerLayer()
	if len(f.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code has %d", len(f.PerLayer), len(layers))
	}
	for i, d := range layers {
		m := f.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// TestTinyWorkloads measures tiny blocks of every workload untraced and
// twice traced. The wrappers must not change behaviour: every run
// reproduces the committed tiny digest. The exact counts repeat across the
// traced runs, every catalogued metric is emitted with its unit, and no unit
// fails.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			want := committedDigests[digestKey(w.Name, true)]
			cfg := Config{Workload: w.Name, Seed: DefaultSeed, Tiny: true, Blocks: checkBlocks, OutDir: t.TempDir()}
			e2e := measure(t, cfg)
			cfg.Trace = true
			traced := [2]*Result{measure(t, cfg), measure(t, cfg)}

			for _, r := range []*Result{e2e, traced[0], traced[1]} {
				if !r.Correct || r.Failed != 0 {
					t.Errorf("trace %v: correct %v, %d of %d failed: %v", r.Trace, r.Correct, r.Failed, r.Attempted, r.Problems)
				}
				if r.CheckDigest != want || r.Digest != want {
					t.Errorf("trace %v: digests %s / %s, committed %s", r.Trace, r.CheckDigest, r.Digest, want)
				}
				for _, c := range r.Children {
					for i, b := range c.Blocks {
						if !(b.Scale > 0) {
							t.Errorf("trace %v: block %d has gauge scale %v", r.Trace, i+1, b.Scale)
						}
					}
				}
			}
			checkEmitted(t, e2e, EndToEnd)
			checkEmitted(t, traced[0], PerLayer())
			if *traced[0].Children[1].Counters != *traced[1].Children[1].Counters {
				t.Errorf("counters differ between traced runs:\n%+v\n%+v",
					*traced[0].Children[1].Counters, *traced[1].Children[1].Counters)
			}
			for _, d := range PerLayer() {
				if d.Unit != "count" || strings.HasPrefix(d.Name, "runtime.") {
					continue // times and allocations are measured, not counted
				}
				if a, b := traced[0].Metrics[d.Name].Value, traced[1].Metrics[d.Name].Value; a != b {
					t.Errorf("%s: %v then %v across traced runs", d.Name, a, b)
				}
			}
		})
	}
}

func measure(t *testing.T, cfg Config) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r, err := Measure(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkEmitted requires exactly the catalogued metrics, each with its unit.
func checkEmitted(t *testing.T, r *Result, defs []MetricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("trace %v: %d metrics emitted, %d catalogued", r.Trace, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("trace %v: metric %s emitted as %+v (present %v), want unit %s", r.Trace, d.Name, m, ok, d.Unit)
		}
	}
}
