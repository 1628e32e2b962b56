package service

import (
	"math"
	"testing"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// drawN samples n consecutive arrival instants starting at t=0.
func drawN(a Arrivals, seed int64, n int) []sim.Time {
	rng := randx.New(seed)
	out := make([]sim.Time, 0, n)
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		now += a.Next(now, rng)
		out = append(out, now)
	}
	return out
}

func TestArrivalsDeterministic(t *testing.T) {
	profiles := []Arrivals{
		Poisson{RatePerHour: 30},
	}
	for _, p := range profiles {
		a := drawN(p, 7, 500)
		b := drawN(p, 7, 500)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs across replays: %v vs %v", p.Name(), i, a[i], b[i])
			}
		}
		if c := drawN(p, 8, 500); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
			t.Fatalf("%s: different seeds produced the same arrivals", p.Name())
		}
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

func TestArrivalsRejectDegenerateParams(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	rng := randx.New(1)
	mustPanic("poisson rate=0", func() { Poisson{}.Next(0, rng) })
}
