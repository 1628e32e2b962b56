package predict

import (
	"math"
	"strconv"
	"testing"

	"hhcw/internal/randx"
	"hhcw/internal/steady"
)

// The per-name slot tables replaced parallel string-keyed maps. The
// reference predictors below are the map-keyed layout, kept verbatim; one
// randomized observation stream, valid and invalid alike, must leave both
// layouts answering Samples and Predict bit for bit.

type mapMean struct {
	sums   map[string]float64
	counts map[string]int
}

func (p *mapMean) observe(o Observation) {
	if !usable(o) {
		return
	}
	p.sums[o.TaskName] += o.RuntimeSec * o.SpeedFactor
	p.counts[o.TaskName]++
}

func (p *mapMean) predict(name string, speed float64) (float64, bool) {
	n := p.counts[name]
	if n == 0 {
		return 0, false
	}
	if speed <= 0 {
		speed = 1
	}
	return p.sums[name] / float64(n) / speed, true
}

type mapLotaru struct {
	rates  map[string]float64
	weight map[string]float64
}

func (p *mapLotaru) fold(name string, rate, w float64) {
	total := p.weight[name] + w
	p.rates[name] = (p.rates[name]*p.weight[name] + rate*w) / total
	p.weight[name] = total
}

func (p *mapLotaru) observe(o Observation) {
	if !usable(o) || o.RuntimeSec <= 0 || o.InputBytes <= 0 {
		return
	}
	p.fold(o.TaskName, o.InputBytes/(o.RuntimeSec*o.SpeedFactor), 1)
}

func (p *mapLotaru) predict(name string, in, speed float64) (float64, bool) {
	rate, ok := p.rates[name]
	if !ok || rate <= 0 {
		return 0, false
	}
	if speed <= 0 {
		speed = 1
	}
	return in / (rate * speed), true
}

type mapMem struct {
	peak   map[string]float64
	counts map[string]int
	margin float64
}

func (p *mapMem) observe(o Observation) {
	if math.IsNaN(o.PeakMem) || math.IsInf(o.PeakMem, 0) || o.PeakMem <= 0 {
		return
	}
	p.counts[o.TaskName]++
	if o.PeakMem > p.peak[o.TaskName] {
		p.peak[o.TaskName] = o.PeakMem
	}
}

func (p *mapMem) predict(name string) (float64, bool) {
	v, ok := p.peak[name]
	if !ok {
		return 0, false
	}
	return v * (1 + p.margin), true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestSlotPredictorsMatchMapReference(t *testing.T) {
	rng := randx.New(41)
	names := []string{"align", "sort", "call", "merge", "qc"}
	odd := []float64{0, -1, math.NaN(), math.Inf(1)}
	pick := func(valid float64) float64 {
		if rng.Bernoulli(0.1) {
			return odd[rng.Intn(len(odd))]
		}
		return valid
	}

	mean, lot, mem := NewMean(), NewLotaru(), NewMem(0.2)
	rMean := &mapMean{sums: map[string]float64{}, counts: map[string]int{}}
	rLot := &mapLotaru{rates: map[string]float64{}, weight: map[string]float64{}}
	rMem := &mapMem{peak: map[string]float64{}, counts: map[string]int{}, margin: 0.2}

	for step := 0; step < 2000; step++ {
		name := names[rng.Intn(len(names))]
		o := Observation{
			TaskName:    name,
			InputBytes:  pick(rng.Float64() * 1e10),
			RuntimeSec:  pick(rng.Float64() * 600),
			PeakMem:     pick(rng.Float64() * 8e9),
			SpeedFactor: pick(0.5 + rng.Float64()*1.5),
		}
		mean.Observe(o)
		rMean.observe(o)
		lot.Observe(o)
		rLot.observe(o)
		mem.Observe(o)
		rMem.observe(o)

		if step%50 != 0 {
			continue
		}
		for _, n := range append(names, "unseen") {
			in, speed := rng.Float64()*1e10, []float64{0, 0.7, 1, 2}[rng.Intn(4)]
			if got, want := mean.Samples(n), rMean.counts[n]; got != want {
				t.Fatalf("step %d: mean Samples(%s) = %d, reference %d", step, n, got, want)
			}
			g, gok := mean.Predict(n, in, speed)
			w, wok := rMean.predict(n, speed)
			if gok != wok || !sameBits(g, w) {
				t.Fatalf("step %d: mean Predict(%s) = (%v,%v), reference (%v,%v)", step, n, g, gok, w, wok)
			}
			if got, want := lot.Samples(n), int(rLot.weight[n]); got != want {
				t.Fatalf("step %d: lotaru Samples(%s) = %d, reference %d", step, n, got, want)
			}
			g, gok = lot.Predict(n, in, speed)
			w, wok = rLot.predict(n, in, speed)
			if gok != wok || !sameBits(g, w) {
				t.Fatalf("step %d: lotaru Predict(%s) = (%v,%v), reference (%v,%v)", step, n, g, gok, w, wok)
			}
			if got, want := mem.Samples(n), rMem.counts[n]; got != want {
				t.Fatalf("step %d: mem Samples(%s) = %d, reference %d", step, n, got, want)
			}
			g, gok = mem.Predict(n)
			w, wok = rMem.predict(n)
			if gok != wok || !sameBits(g, w) {
				t.Fatalf("step %d: mem Predict(%s) = (%v,%v), reference (%v,%v)", step, n, g, gok, w, wok)
			}
		}
	}
}

// TestObserveSeenNameAllocatesNothing: once a name has a slot, folding
// another observation for it is one lookup and no allocation.
func TestObserveSeenNameAllocatesNothing(t *testing.T) {
	var obs []Observation
	for i := 0; i < 16; i++ {
		obs = append(obs, Observation{
			TaskName: "proc" + strconv.Itoa(i), InputBytes: 1e6 * float64(i+1),
			RuntimeSec: float64(10 + i), PeakMem: 1e9, SpeedFactor: 1.5,
		})
	}
	predictors := map[string]interface{ Observe(Observation) }{
		"mean":       NewMean(),
		"regression": NewRegression(),
		"lotaru":     NewLotaru(),
		"mem":        NewMem(0.2),
	}
	for name, p := range predictors {
		for _, o := range obs {
			p.Observe(o) // open every slot
		}
		allocs := steady.AllocsPerRun(50, func() {
			for _, o := range obs {
				p.Observe(o)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Observe on seen names allocates %v times, want 0", name, allocs)
		}
	}
}
