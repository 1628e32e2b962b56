package predict

import (
	"fmt"
	"math"
	"testing"
)

// TestObserveRejectsInvalid drives every runtime predictor through the same
// table of poisonous observations: each must leave the model cold (no
// prediction basis) instead of folding NaN/Inf/zero-speed garbage.
func TestObserveRejectsInvalid(t *testing.T) {
	bad := []struct {
		name string
		obs  Observation
	}{
		{"nan-runtime", Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: math.NaN(), SpeedFactor: 1}},
		{"inf-runtime", Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: math.Inf(1), SpeedFactor: 1}},
		{"neg-runtime", Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: -5, SpeedFactor: 1}},
		{"zero-speed", Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: 10, SpeedFactor: 0}},
		{"neg-speed", Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: 10, SpeedFactor: -2}},
		{"nan-speed", Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: 10, SpeedFactor: math.NaN()}},
		{"inf-speed", Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: 10, SpeedFactor: math.Inf(1)}},
		{"nan-input", Observation{TaskName: "x", InputBytes: math.NaN(), RuntimeSec: 10, SpeedFactor: 1}},
		{"inf-input", Observation{TaskName: "x", InputBytes: math.Inf(1), RuntimeSec: 10, SpeedFactor: 1}},
		{"neg-input", Observation{TaskName: "x", InputBytes: -1, RuntimeSec: 10, SpeedFactor: 1}},
	}
	predictors := []struct {
		name string
		make func() RuntimePredictor
	}{
		{"mean", func() RuntimePredictor { return NewMean() }},
		{"regression", func() RuntimePredictor { return NewRegression() }},
		{"lotaru", func() RuntimePredictor { return NewLotaru() }},
	}
	for _, pc := range predictors {
		for _, tc := range bad {
			p := pc.make()
			p.Observe(tc.obs)
			if _, ok := p.Predict("x", 1e6, 1); ok {
				t.Errorf("%s: %s observation trained the model", pc.name, tc.name)
			}
			if s, isSampler := p.(Sampler); isSampler && s.Samples("x") != 0 {
				t.Errorf("%s: %s observation counted as a sample", pc.name, tc.name)
			}
		}
	}
}

// TestObserveRejectionPreservesModel checks a trained model survives a burst
// of invalid observations bit-for-bit.
func TestObserveRejectionPreservesModel(t *testing.T) {
	for _, pc := range []RuntimePredictor{NewMean(), NewRegression(), NewLotaru()} {
		pc.Observe(Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: 10, SpeedFactor: 1})
		pc.Observe(Observation{TaskName: "x", InputBytes: 2e6, RuntimeSec: 20, SpeedFactor: 1})
		before, ok := pc.Predict("x", 1.5e6, 1)
		if !ok {
			t.Fatalf("%T: model cold after two valid observations", pc)
		}
		pc.Observe(Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: math.NaN(), SpeedFactor: 1})
		pc.Observe(Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: 10, SpeedFactor: math.Inf(1)})
		after, ok := pc.Predict("x", 1.5e6, 1)
		if !ok || after != before {
			t.Fatalf("%T: invalid observations perturbed the model: %v -> %v", pc, before, after)
		}
	}
}

// TestRegressionZeroVarianceLargeInputs is the float-degeneracy regression:
// identical large input sizes make n·Σx² − (Σx)² round to a small nonzero
// value that an absolute epsilon misses, producing a garbage slope. The
// predictor must fall back to the per-name mean.
func TestRegressionZeroVarianceLargeInputs(t *testing.T) {
	p := NewRegression()
	for i := 0; i < 3; i++ {
		p.Observe(Observation{TaskName: "x", InputBytes: 1e9, RuntimeSec: 100, SpeedFactor: 1})
	}
	for _, x := range []float64{0, 1e9, 5e9} {
		got, ok := p.Predict("x", x, 1)
		if !ok {
			t.Fatalf("no prediction at x=%g", x)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-100) > 1e-6 {
			t.Fatalf("zero-variance prediction at x=%g: got %v, want mean 100", x, got)
		}
	}
}

// TestMemPredictorRejectsInvalid: the memory model reads only PeakMem (a
// zero SpeedFactor is deliberately fine — provenance feeds it that way) and
// rejects non-finite or non-positive peaks.
func TestMemPredictorRejectsInvalid(t *testing.T) {
	p := NewMem(0.2)
	for _, peak := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -4e9} {
		p.Observe(Observation{TaskName: "x", PeakMem: peak})
	}
	if _, ok := p.Predict("x"); ok {
		t.Fatal("invalid peaks trained the memory model")
	}
	if p.Samples("x") != 0 {
		t.Fatal("invalid peaks counted as samples")
	}
	p.Observe(Observation{TaskName: "x", PeakMem: 4e9}) // SpeedFactor zero: still valid
	got, ok := p.Predict("x")
	if !ok || math.Abs(got-4.8e9) > 1 {
		t.Fatalf("mem prediction = %v ok=%v, want 4.8e9", got, ok)
	}
	if p.Samples("x") != 1 {
		t.Fatalf("samples = %d, want 1", p.Samples("x"))
	}
}

// TestSamplesCounting pins the Sampler contract the schedulers' warmth gate
// relies on: valid observations count, per name.
func TestSamplesCounting(t *testing.T) {
	for _, pc := range []RuntimePredictor{NewMean(), NewRegression(), NewLotaru()} {
		s := pc.(Sampler)
		for i := 1; i <= 3; i++ {
			pc.Observe(Observation{TaskName: "a", InputBytes: float64(i) * 1e6, RuntimeSec: float64(10 * i), SpeedFactor: 1})
			if s.Samples("a") != i {
				t.Fatalf("%T: samples(a) = %d after %d observations", pc, s.Samples("a"), i)
			}
		}
		if s.Samples("b") != 0 {
			t.Fatalf("%T: unseen name has samples", pc)
		}
	}
}

// TestByName pins the CLI predictor-name mapping.
func TestByName(t *testing.T) {
	for _, name := range []string{"", "off"} {
		ctor, err := ByName(name)
		if err != nil || ctor != nil {
			t.Fatalf("ByName(%q): ctor nil=%v err=%v; want nil ctor, nil err", name, ctor == nil, err)
		}
	}
	for name, want := range map[string]string{
		"mean":       "*predict.MeanPredictor",
		"regression": "*predict.RegressionPredictor",
		"lotaru":     "*predict.LotaruPredictor",
	} {
		ctor, err := ByName(name)
		if err != nil || ctor == nil {
			t.Fatalf("ByName(%q) failed: %v", name, err)
		}
		if got := fmt.Sprintf("%T", ctor()); got != want {
			t.Fatalf("ByName(%q) built %s, want %s", name, got, want)
		}
	}
	if _, err := ByName("oracle"); err == nil {
		t.Fatal("unknown predictor name accepted")
	}
}
