package metrics

// Edge-case coverage for the aggregation primitives the sweep reducer leans
// on: empty sample sets, single samples, NaN/Inf rejection, and percentile
// interpolation at exact index boundaries.

import (
	"math"
	"math/rand"
	"testing"

	"hhcw/internal/steady"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Dropped != 0 {
		t.Fatalf("empty: %+v", s)
	}
	if s.Min != 0 || s.Median != 0 || s.P90 != 0 || s.Max != 0 || s.Mean() != 0 {
		t.Fatalf("empty summary has non-zero stats: %+v", s)
	}
	if s = Summarize([]float64{}); s.N != 0 {
		t.Fatalf("zero-length slice: %+v", s)
	}
}

func TestSummarizeSingleSample(t *testing.T) {
	s := Summarize([]float64{42.5})
	if s.N != 1 || s.Dropped != 0 {
		t.Fatalf("single: %+v", s)
	}
	for name, v := range map[string]float64{
		"min": s.Min, "median": s.Median, "p90": s.P90, "max": s.Max, "mean": s.Mean(),
	} {
		if v != 42.5 {
			t.Fatalf("%s = %v, want 42.5 (every order statistic of one sample is the sample)", name, v)
		}
	}
}

func TestSummarizeRejectsNonFinite(t *testing.T) {
	s := Summarize([]float64{1, math.NaN(), 3, math.Inf(1), 2, math.Inf(-1)})
	if s.N != 3 || s.Dropped != 3 {
		t.Fatalf("N=%d Dropped=%d, want 3/3", s.N, s.Dropped)
	}
	if s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("stats polluted by non-finite input: %+v", s)
	}
	if m := s.Mean(); math.IsNaN(m) || m != 2 {
		t.Fatalf("mean = %v, want 2", m)
	}
	// All-non-finite input degrades to the empty summary, not NaN.
	s = Summarize([]float64{math.NaN(), math.Inf(1)})
	if s.N != 0 || s.Dropped != 2 || s.Mean() != 0 {
		t.Fatalf("all-non-finite: %+v mean=%v", s, s.Mean())
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}

// QuantileSorted at positions that land exactly on an index must return that
// element with no interpolation error; positions between indices must
// interpolate linearly.
func TestQuantileExactBoundaries(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	// With 5 values, pos = q*4; q = k/4 lands exactly on v[k].
	for k := 0; k <= 4; k++ {
		q := float64(k) / 4
		if got := QuantileSorted(v, q); got != v[k] {
			t.Fatalf("QuantileSorted(%v) = %v, want exactly %v", q, got, v[k])
		}
	}
	// Midpoint between two indices interpolates halfway.
	if got := QuantileSorted(v, 0.125); got != 15 {
		t.Fatalf("QuantileSorted(0.125) = %v, want 15", got)
	}
	// Out-of-range q clamps to the extremes.
	if QuantileSorted(v, -0.5) != 10 || QuantileSorted(v, 1.5) != 50 {
		t.Fatal("q outside [0,1] did not clamp")
	}
}

func TestSummarizeMatchesQuantileOnEvenN(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	s := Summarize(v)
	if s.Median != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5 (interpolated)", s.Median)
	}
	if want := QuantileSorted([]float64{1, 2, 3, 4}, 0.9); s.P90 != want {
		t.Fatalf("P90 = %v, want %v", s.P90, want)
	}
}

func TestAggEmptyAndSingle(t *testing.T) {
	var a Agg
	if a.Mean() != 0 || a.Max() != 0 {
		t.Fatal("zero Agg must report zeros")
	}
	a.Observe(-7)
	if a.N != 1 || a.Mean() != -7 || a.Max() != -7 || a.Min != -7 {
		t.Fatalf("single observation: %+v", a)
	}
}

// TestSummarizeInPlaceEquivalence: SummarizeInPlace must produce bit-identical
// statistics to Summarize on the same input, for random mixtures of finite and
// non-finite values — it is the zero-alloc twin, not a different estimator.
func TestSummarizeInPlaceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(8) {
			case 0:
				vals[i] = math.NaN()
			case 1:
				vals[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				vals[i] = rng.NormFloat64() * 1e3
			}
		}
		want := Summarize(vals)
		got := SummarizeInPlace(append([]float64(nil), vals...))
		if got != want {
			t.Fatalf("iter %d: in-place %+v != copying %+v", iter, got, want)
		}
	}
}

// TestSummarizeInPlaceCompacts: the in-place variant reorders the caller's
// slice (finite values sorted at the front) — the documented contract.
func TestSummarizeInPlaceCompacts(t *testing.T) {
	vals := []float64{3, math.NaN(), 1, 2}
	s := SummarizeInPlace(vals)
	if s.N != 3 || s.Dropped != 1 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("summary: %+v", s)
	}
	for i, want := range []float64{1, 2, 3} {
		if vals[i] != want {
			t.Fatalf("prefix not compact-sorted: %v", vals)
		}
	}
}

// TestSummarizeInPlaceAllocs: the whole point — zero allocations.
func TestSummarizeInPlaceAllocs(t *testing.T) {
	vals := make([]float64, 512)
	rng := rand.New(rand.NewSource(22))
	if avg := steady.AllocsPerRun(100, func() {
		for i := range vals {
			vals[i] = rng.Float64()
		}
		SummarizeInPlace(vals)
	}); avg != 0 {
		t.Fatalf("SummarizeInPlace allocates %.1f per call, want 0", avg)
	}
}
