package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hhcw/internal/sim"
)

func TestSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	s := NewSeries("x")
	s.Add(5, 1)
	s.Add(4, 1)
}

func TestSeriesIntegral(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 2) // 2 until t=10
	s.Add(10, 4)
	got := s.Integral(0, 20)
	want := 2*10 + 4*10.0
	if got != want {
		t.Fatalf("Integral = %v, want %v", got, want)
	}
	// Partial window.
	if got := s.Integral(5, 15); got != 2*5+4*5.0 {
		t.Fatalf("partial Integral = %v", got)
	}
	// Before first sample counts as 0.
	s2 := NewSeries("y")
	s2.Add(10, 1)
	if got := s2.Integral(0, 20); got != 10 {
		t.Fatalf("leading-zero Integral = %v, want 10", got)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 100)
	s.Add(50, 0)
	if got := s.TimeWeightedMean(0, 100); got != 50 {
		t.Fatalf("TimeWeightedMean = %v, want 50", got)
	}
}

func TestCounterMonotone(t *testing.T) {
	c := NewCounter("done")
	c.Inc(1, 1)
	c.Inc(2, 3)
	if c.value != 4 {
		t.Fatalf("value = %v, want 4", c.value)
	}
	if pts := c.Points(); pts[len(pts)-1].V != 4 {
		t.Fatalf("last point = %v", pts[len(pts)-1])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Inc did not panic")
		}
	}()
	c.Inc(3, -1)
}

func TestGaugeDelta(t *testing.T) {
	g := NewGauge("running")
	g.AddDelta(1, 5)
	g.AddDelta(2, -2)
	if g.value != 3 {
		t.Fatalf("value = %v, want 3", g.value)
	}
}

func TestAggMeanMax(t *testing.T) {
	var a Agg
	for _, v := range []float64{1, 2, 3, 10} {
		a.Observe(v)
	}
	if a.Mean() != 4 {
		t.Fatalf("Mean = %v, want 4", a.Mean())
	}
	if a.Max() != 10 {
		t.Fatalf("Max = %v, want 10", a.Max())
	}
	if a.Min != 1 {
		t.Fatalf("Min = %v, want 1", a.Min)
	}
}

func TestProcStats(t *testing.T) {
	p := ProcStats{Step: "salmon"}
	p.Observe(ProcSample{CPUPct: 90, IOWaitPct: 1, RSSBytes: 8e8})
	p.Observe(ProcSample{CPUPct: 98, IOWaitPct: 2, RSSBytes: 2.8e9})
	if p.CPU.Mean() != 94 {
		t.Fatalf("CPU mean = %v", p.CPU.Mean())
	}
	if p.RSS.Max() != 2.8e9 {
		t.Fatalf("RSS max = %v", p.RSS.Max())
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if got := QuantileSorted(v, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := QuantileSorted(v, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := QuantileSorted(v, 0.5); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := QuantileSorted(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestHumanFormats(t *testing.T) {
	if got := HumanBytes(2.8e9); got != "2.8GB" {
		t.Fatalf("HumanBytes = %q", got)
	}
	if got := HumanBytes(760e6); got != "760MB" {
		t.Fatalf("HumanBytes = %q", got)
	}
	if got := HumanSeconds(9.6 * 60); got != "9.6min" {
		t.Fatalf("HumanSeconds = %q", got)
	}
	if got := HumanSeconds(36); got != "36s" {
		t.Fatalf("HumanSeconds = %q", got)
	}
	if got := HumanSeconds(2.7 * 3600); got != "2.7h" {
		t.Fatalf("HumanSeconds = %q", got)
	}
}

// Property: Integral over [a,b] + [b,c] == Integral over [a,c].
func TestIntegralAdditive(t *testing.T) {
	f := func(vals []uint8) bool {
		s := NewSeries("p")
		for i, v := range vals {
			s.Add(sim.Time(i), float64(v))
		}
		n := sim.Time(len(vals))
		mid := n / 2
		whole := s.Integral(0, n)
		split := s.Integral(0, mid) + s.Integral(mid, n)
		return math.Abs(whole-split) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, r := range raw {
			v[i] = float64(r)
		}
		sort.Float64s(v)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			x := QuantileSorted(v, q)
			if x < prev-1e-9 {
				return false
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
