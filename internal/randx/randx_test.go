package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(7)
	c1 := a.Fork()
	c2 := a.Fork()
	if c1.Float64() == c2.Float64() && c1.Float64() == c2.Float64() && c1.Float64() == c2.Float64() {
		t.Fatal("forked sources produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(2)
	for i := 0; i < 1000; i++ {
		v := s.TruncNormal(5, 10, 0, 6)
		if v < 0 || v > 6 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestLogNormalMeanCV(t *testing.T) {
	s := New(3)
	const mean, cv = 100.0, 0.3
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		v := s.LogNormalMeanCV(mean, cv)
		if v <= 0 {
			t.Fatalf("lognormal sample <= 0: %v", v)
		}
		sum += v
	}
	got := sum / float64(n)
	if math.Abs(got-mean)/mean > 0.05 {
		t.Fatalf("empirical mean %v, want ~%v", got, mean)
	}
}

func TestLogNormalMeanCVDegenerate(t *testing.T) {
	s := New(4)
	if v := s.LogNormalMeanCV(0, 0.5); v != 0 {
		t.Fatalf("mean 0 should give 0, got %v", v)
	}
	if v := s.LogNormalMeanCV(42, 0); v != 42 {
		t.Fatalf("cv 0 should give mean, got %v", v)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(7)
	z := NewZipf(10, 1.2)
	counts := make([]int, 11)
	for i := 0; i < 20000; i++ {
		v := z.Sample(s)
		if v < 1 || v > 10 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[10] {
		t.Fatalf("zipf not skewed: first=%d last=%d", counts[1], counts[10])
	}
}

func TestZipfUniformAlphaZero(t *testing.T) {
	s := New(8)
	z := NewZipf(4, 0)
	counts := make([]int, 5)
	for i := 0; i < 40000; i++ {
		counts[z.Sample(s)]++
	}
	for v := 1; v <= 4; v++ {
		frac := float64(counts[v]) / 40000
		if math.Abs(frac-0.25) > 0.03 {
			t.Fatalf("alpha=0 not uniform: counts=%v", counts)
		}
	}
}

// Property: Exp(mean) is always non-negative and Bernoulli(0)/Bernoulli(1)
// are constant.
func TestExpBernoulliProperties(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		if s.Exp(5) < 0 {
			return false
		}
		if s.Bernoulli(0) {
			return false
		}
		if !s.Bernoulli(1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSingleton(t *testing.T) {
	s := New(9)
	z := NewZipf(1, 0.8)
	for i := 0; i < 100; i++ {
		if v := z.Sample(s); v != 1 {
			t.Fatalf("NewZipf(1, ·).Sample = %d, want 1", v)
		}
	}
}

func TestZipfRejectsDegenerateInputs(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("n=0", func() { NewZipf(0, 0.8) })
	mustPanic("n=-3", func() { NewZipf(-3, 0.8) })
	mustPanic("alpha=-0.5", func() { NewZipf(4, -0.5) })
	mustPanic("alpha=NaN", func() { NewZipf(4, math.NaN()) })
}
