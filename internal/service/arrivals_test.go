package service

import (
	"errors"
	"math"
	"testing"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// drawN samples n consecutive arrival instants starting at t=0.
func drawN(p Poisson, seed int64, n int) []sim.Time {
	rng := randx.New(seed)
	out := make([]sim.Time, 0, n)
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		now += p.Next(rng)
		out = append(out, now)
	}
	return out
}

func TestArrivalsDeterministic(t *testing.T) {
	p := Poisson{RatePerHour: 30}
	a := drawN(p, 7, 500)
	b := drawN(p, 7, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across replays: %v vs %v", i, a[i], b[i])
		}
	}
	if c := drawN(p, 8, 500); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different seeds produced the same arrivals")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	const rate = 60.0 // one per minute
	inst := drawN(Poisson{RatePerHour: rate}, 3, 20000)
	meanIA := float64(inst[len(inst)-1]) / float64(len(inst))
	if want := 3600 / rate; math.Abs(meanIA-want)/want > 0.05 {
		t.Fatalf("mean inter-arrival %.2fs, want ~%.2fs", meanIA, want)
	}
}

// TestArrivalsRejectDegenerateParams: a tenant whose arrival rate is not
// positive and finite is refused with ErrArrivalRate before the run starts.
func TestArrivalsRejectDegenerateParams(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		cfg := ContendedScenario(false)
		cfg.Tenants[1].Arrivals.RatePerHour = rate
		if _, err := Run(cfg, 1); !errors.Is(err, ErrArrivalRate) {
			t.Errorf("rate %v: err = %v, want ErrArrivalRate", rate, err)
		}
	}
}
