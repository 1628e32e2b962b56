package jaws

import (
	"fmt"
	"testing"
	"testing/quick"

	"hhcw/internal/cluster"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

func TestStringRoundTrip(t *testing.T) {
	def := mustParse(t, sampleWDL)
	back, err := Parse(def.String())
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, def.String())
	}
	if !Equivalent(def, back) {
		t.Fatalf("round trip not equivalent:\n%s\nvs\n%s", def.String(), back.String())
	}
}

func TestFusedRoundTrip(t *testing.T) {
	def := mustParse(t, sampleWDL)
	fused, err := Fuse(def, []string{"filter", "align"})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(fused.String())
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(fused, back) {
		t.Fatal("fused workflow round trip not equivalent")
	}
}

// randomDef generates a random valid layered workflow definition.
func randomDef(seed int64) *WorkflowDef {
	rng := randx.New(seed)
	n := 2 + rng.Intn(8)
	w := &WorkflowDef{Name: "rand", byName: map[string]*TaskDef{}}
	for i := 0; i < n; i++ {
		t := &TaskDef{
			Name:        fmt.Sprintf("t%02d", i),
			Cores:       1 + rng.Intn(4),
			MemBytes:    float64(1+rng.Intn(8)) * 1e9,
			DurationSec: rng.Uniform(1, 1000),
			OverheadSec: rng.Uniform(0, 100),
			Container:   "docker://x@sha256:aa",
		}
		if rng.Bernoulli(0.4) {
			t.Scatter = 2 + rng.Intn(16)
		}
		if i > 0 {
			k := 1 + rng.Intn(2)
			perm := rng.Perm(make([]int, i))
			for j := 0; j < k && j < i; j++ {
				t.After = append(t.After, fmt.Sprintf("t%02d", perm[j]))
			}
		}
		w.Tasks = append(w.Tasks, t)
		w.byName[t.Name] = t
	}
	return w
}

// Property: any random valid definition survives a serialize/parse round
// trip equivalently.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		def := randomDef(seed)
		if err := def.Validate(); err != nil {
			return false
		}
		back, err := Parse(def.String())
		if err != nil {
			return false
		}
		return Equivalent(def, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: fusion conserves total payload seconds (shards × dur summed over
// fused members equals the fused task's shards × dur) when all members share
// one scatter width.
func TestFusionConservesPayload(t *testing.T) {
	f := func(rawScatter uint8, rawDur1, rawDur2 uint16) bool {
		scatter := 1 + int(rawScatter)%16
		d1 := 1 + float64(rawDur1%1000)
		d2 := 1 + float64(rawDur2%1000)
		text := fmt.Sprintf(`
workflow p
task a dur=%gs overhead=10s scatter=%d
task b dur=%gs overhead=10s after=a scatter=%d
`, d1, scatter, d2, scatter)
		def, err := Parse(text)
		if err != nil {
			return false
		}
		fused, err := Fuse(def, []string{"a", "b"})
		if err != nil {
			return false
		}
		ft := fused.Task("a+b")
		want := (d1 + d2) * float64(scatter)
		got := ft.DurationSec * float64(ft.Shards())
		diff := want - got
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceStats(t *testing.T) {
	eng := sim.NewEngine()
	svc := NewService(eng)
	cl := cluster.New(eng, "x", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 16, MemBytes: 256e9},
		Count: 2,
	})
	svc.AddSite("x", cl)
	def := mustParse(t, sampleWDL)
	if _, err := svc.Submit(def, "bob", "x", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(def, "bob", "x", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(def, "alice", "x", nil); err != nil {
		t.Fatal(err)
	}
	stats := svc.Stats()
	if len(stats) != 2 || stats[0].User != "alice" || stats[1].User != "bob" {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[1].Submissions != 2 {
		t.Fatalf("bob submissions = %d", stats[1].Submissions)
	}
	// The site has call caching on: bob's second run is all cache hits,
	// and alice's too (same definition).
	if stats[1].CacheHits == 0 || stats[0].CacheHits == 0 {
		t.Fatalf("cache hits not aggregated: %+v", stats)
	}
	if stats[1].Shards != def.TotalShards() { // first run only
		t.Fatalf("bob shards = %d, want %d", stats[1].Shards, def.TotalShards())
	}
}
