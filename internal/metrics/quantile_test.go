package metrics

import (
	"math"
	"testing"
)

// Summarize must drop non-finite values before it reads quantiles: one NaN
// in the input breaks sort.Float64s ordering and silently corrupts every
// quantile downstream.
func TestQuantileDropsNaN(t *testing.T) {
	clean := []float64{1, 2, 3, 4, 5}
	dirty := []float64{math.NaN(), 1, 2, math.NaN(), 3, 4, 5, math.NaN()}
	s := Summarize(dirty)
	if want := QuantileSorted(clean, 0.5); s.Median != want {
		t.Fatalf("NaN-polluted median %v, clean %v", s.Median, want)
	}
	if want := QuantileSorted(clean, 0.9); s.P90 != want {
		t.Fatalf("NaN-polluted p90 %v, clean %v", s.P90, want)
	}
}

func TestQuantileAllNonFinite(t *testing.T) {
	for _, in := range [][]float64{
		{math.NaN()},
		{math.NaN(), math.NaN(), math.NaN()},
		{math.Inf(1), math.Inf(-1)},
		nil,
	} {
		if s := Summarize(in); s.N != 0 || s.Median != 0 || s.P90 != 0 {
			t.Fatalf("Summarize(%v) = %+v, want no samples and zero quantiles", in, s)
		}
	}
}

func TestQuantileDropsInf(t *testing.T) {
	s := Summarize([]float64{math.Inf(-1), 10, 20, 30, math.Inf(1)})
	if s.Median != 20 {
		t.Fatalf("median with ±Inf = %v, want 20", s.Median)
	}
	if s.Max != 30 {
		t.Fatalf("max with +Inf = %v, want 30 (Inf must be dropped, not returned)", s.Max)
	}
	if s.Min != 10 {
		t.Fatalf("min with -Inf = %v, want 10 (-Inf must be dropped, not returned)", s.Min)
	}
}

// Consistency pin: QuantileSorted over the sorted finite values and
// SummarizeInPlace over the polluted sample agree on the quantiles Summary
// exposes.
func TestQuantileMatchesSummarizeOnPolluted(t *testing.T) {
	in := []float64{math.NaN(), 5, 1, math.Inf(1), 3, 2, 4, math.Inf(-1)}
	finite := []float64{1, 2, 3, 4, 5}
	med := QuantileSorted(finite, 0.5)
	p90 := QuantileSorted(finite, 0.9)
	s := SummarizeInPlace(append([]float64(nil), in...))
	if med != s.Median || p90 != s.P90 {
		t.Fatalf("QuantileSorted (med=%v p90=%v) disagrees with Summarize (med=%v p90=%v)",
			med, p90, s.Median, s.P90)
	}
	if s.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", s.Dropped)
	}
}
