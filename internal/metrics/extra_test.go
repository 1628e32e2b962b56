package metrics

import (
	"testing"

	"hhcw/internal/sim"
)

func TestSeriesAccessors(t *testing.T) {
	s := NewSeries("x")
	if s.Len() != 0 || len(s.Points()) != 0 {
		t.Fatal("empty series accessors wrong")
	}
	s.Add(1, 10)
	s.Add(2, 20)
	if s.Len() != 2 || len(s.Points()) != 2 {
		t.Fatalf("Len/Points = %d/%d", s.Len(), len(s.Points()))
	}
	if p := s.Points()[1]; p != (Point{T: 2, V: 20}) {
		t.Fatalf("last point = %+v", p)
	}
}

func TestTimeWeightedMeanDegenerate(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 5)
	if got := s.TimeWeightedMean(5, 5); got != 0 {
		t.Fatalf("zero window mean = %v", got)
	}
	if got := s.TimeWeightedMean(7, sim.Time(3)); got != 0 {
		t.Fatalf("inverted window mean = %v", got)
	}
}

func TestIntegralDegenerate(t *testing.T) {
	s := NewSeries("x")
	if s.Integral(0, 10) != 0 {
		t.Fatal("empty integral")
	}
	s.Add(0, 5)
	if s.Integral(10, 5) != 0 {
		t.Fatal("inverted integral")
	}
}

func TestAggMeanEmpty(t *testing.T) {
	var a Agg
	if a.Mean() != 0 || a.Max() != 0 {
		t.Fatal("empty Agg")
	}
}

func TestHumanBytesRanges(t *testing.T) {
	cases := map[float64]string{
		5e12:  "5.0TB",
		3.2e9: "3.2GB",
		45e6:  "45MB",
		7e3:   "7KB",
		12:    "12B",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%v) = %q, want %q", in, got, want)
		}
	}
}
