package predict

import (
	"math"
	"testing"
	"testing/quick"

	"hhcw/internal/randx"
)

func TestMeanPredictorColdStart(t *testing.T) {
	p := NewMean()
	if _, ok := p.Predict("x", 0, 1); ok {
		t.Fatal("cold predictor claimed a prediction")
	}
}

func TestMeanPredictorNormalizesSpeed(t *testing.T) {
	p := NewMean()
	// 100s on a 2x machine = 200s reference.
	p.Observe(Observation{TaskName: "x", RuntimeSec: 100, SpeedFactor: 2})
	got, ok := p.Predict("x", 0, 1)
	if !ok || got != 200 {
		t.Fatalf("reference prediction = %v, want 200", got)
	}
	got, _ = p.Predict("x", 0, 4)
	if got != 50 {
		t.Fatalf("fast-machine prediction = %v, want 50", got)
	}
}

func TestMeanPredictorAverages(t *testing.T) {
	p := NewMean()
	p.Observe(Observation{TaskName: "x", RuntimeSec: 10, SpeedFactor: 1})
	p.Observe(Observation{TaskName: "x", RuntimeSec: 30, SpeedFactor: 1})
	got, _ := p.Predict("x", 0, 1)
	if got != 20 {
		t.Fatalf("mean = %v, want 20", got)
	}
}

func TestRegressionLearnsLinear(t *testing.T) {
	p := NewRegression()
	// runtime = 5 + 2e-9 * bytes
	for _, b := range []float64{1e9, 2e9, 3e9, 4e9} {
		p.Observe(Observation{TaskName: "x", InputBytes: b, RuntimeSec: 5 + 2e-9*b, SpeedFactor: 1})
	}
	got, ok := p.Predict("x", 10e9, 1)
	if !ok || math.Abs(got-25) > 0.1 {
		t.Fatalf("regression predicted %v, want ~25", got)
	}
}

func TestRegressionIdenticalInputsFallsBackToMean(t *testing.T) {
	p := NewRegression()
	p.Observe(Observation{TaskName: "x", InputBytes: 100, RuntimeSec: 10, SpeedFactor: 1})
	p.Observe(Observation{TaskName: "x", InputBytes: 100, RuntimeSec: 20, SpeedFactor: 1})
	got, ok := p.Predict("x", 500, 1)
	if !ok || got != 15 {
		t.Fatalf("degenerate regression = %v, want mean 15", got)
	}
}

func TestRegressionNeverNegative(t *testing.T) {
	p := NewRegression()
	p.Observe(Observation{TaskName: "x", InputBytes: 100, RuntimeSec: 100, SpeedFactor: 1})
	p.Observe(Observation{TaskName: "x", InputBytes: 200, RuntimeSec: 1, SpeedFactor: 1})
	got, _ := p.Predict("x", 10000, 1)
	if got < 0 {
		t.Fatalf("negative prediction %v", got)
	}
}

func TestLotaruProfileThenPredict(t *testing.T) {
	p := NewLotaru()
	// A profiling run: 1 GB in 100 s on a 0.5× (slow local) machine →
	// reference rate 2e7 B/s.
	p.Observe(Observation{TaskName: "salmon", InputBytes: 1e9, RuntimeSec: 100, SpeedFactor: 0.5})
	got, ok := p.Predict("salmon", 4e9, 1)
	if !ok || math.Abs(got-200) > 1e-6 {
		t.Fatalf("lotaru predicted %v, want 200", got)
	}
	// Faster target machine.
	got, _ = p.Predict("salmon", 4e9, 2)
	if math.Abs(got-100) > 1e-6 {
		t.Fatalf("lotaru on 2x machine = %v, want 100", got)
	}
}

func TestLotaruOnlineRefinement(t *testing.T) {
	p := NewLotaru()
	p.Observe(Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: 1, SpeedFactor: 1}) // rate 1e6
	p.Observe(Observation{TaskName: "x", InputBytes: 3e6, RuntimeSec: 1, SpeedFactor: 1})
	got, _ := p.Predict("x", 2e6, 1)
	// Rate now (1e6 + 3e6)/2 = 2e6 → 1s.
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("refined prediction = %v, want 1", got)
	}
}

func TestLotaruIgnoresBadSamples(t *testing.T) {
	p := NewLotaru()
	p.Observe(Observation{TaskName: "x", InputBytes: 0, RuntimeSec: 10, SpeedFactor: 1})
	p.Observe(Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: 0})
	if _, ok := p.Predict("x", 1e6, 1); ok {
		t.Fatal("prediction from invalid samples")
	}
}

func TestMemPredictorMargin(t *testing.T) {
	p := NewMem(0.2)
	if _, ok := p.Predict("x"); ok {
		t.Fatal("cold mem predictor claimed prediction")
	}
	p.Observe(Observation{TaskName: "x", PeakMem: 100})
	p.Observe(Observation{TaskName: "x", PeakMem: 80})
	got, _ := p.Predict("x")
	if math.Abs(got-120) > 1e-9 {
		t.Fatalf("mem prediction = %v, want 120", got)
	}
}

func TestErrors(t *testing.T) {
	var e Errors
	e.Observe(90, 100)
	e.Observe(110, 100)
	if e.MAE() != 10 {
		t.Fatalf("MAE = %v, want 10", e.MAE())
	}
	if math.Abs(e.MRE()-0.1) > 1e-9 {
		t.Fatalf("MRE = %v, want 0.1", e.MRE())
	}
	var empty Errors
	if empty.MAE() != 0 || empty.MRE() != 0 {
		t.Fatal("empty Errors not zero")
	}
}

// Property: Lotaru predictions scale inversely with machine speed.
func TestLotaruSpeedScaling(t *testing.T) {
	f := func(rawBytes, rawSpeed uint16) bool {
		bytes := float64(rawBytes) + 1
		speed := float64(rawSpeed%10) + 1
		p := NewLotaru()
		p.Observe(Observation{TaskName: "x", InputBytes: 1e6, RuntimeSec: 10, SpeedFactor: 1})
		base, _ := p.Predict("x", bytes, 1)
		fast, _ := p.Predict("x", bytes, speed)
		return math.Abs(base/speed-fast) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: regression trained on exactly linear data recovers it
// (within tolerance) for in-range queries.
func TestRegressionRecoversLine(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		a := rng.Uniform(0, 50)
		b := rng.Uniform(0, 1e-6)
		p := NewRegression()
		for i := 0; i < 10; i++ {
			x := rng.Uniform(1e6, 1e9)
			p.Observe(Observation{TaskName: "t", InputBytes: x, RuntimeSec: a + b*x, SpeedFactor: 1})
		}
		x := rng.Uniform(1e6, 1e9)
		got, ok := p.Predict("t", x, 1)
		want := a + b*x
		return ok && math.Abs(got-want) < 1e-3*(want+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictZeroSpeedFactorDefaults(t *testing.T) {
	// A zero speed factor is rejected on Observe (it would poison the
	// reference normalization) but defaults to 1 on Predict (a query-side
	// convenience, not training data).
	p := NewMean()
	p.Observe(Observation{TaskName: "x", RuntimeSec: 10, SpeedFactor: 0}) // rejected
	if _, ok := p.Predict("x", 0, 1); ok {
		t.Fatal("zero-speed observation should not train the mean model")
	}
	p.Observe(Observation{TaskName: "x", RuntimeSec: 10, SpeedFactor: 1})
	got, ok := p.Predict("x", 0, 0)
	if !ok || got != 10 {
		t.Fatalf("zero-speed prediction = %v ok=%v", got, ok)
	}
	r := NewRegression()
	r.Observe(Observation{TaskName: "x", InputBytes: 1, RuntimeSec: 10, SpeedFactor: 0}) // rejected
	if _, ok := r.Predict("x", 1, 1); ok {
		t.Fatal("zero-speed observation should not train the regression model")
	}
	r.Observe(Observation{TaskName: "x", InputBytes: 1, RuntimeSec: 10, SpeedFactor: 1})
	if got, ok := r.Predict("x", 1, 0); !ok || got != 10 {
		t.Fatalf("regression zero-speed = %v ok=%v", got, ok)
	}
}
