package randx

import "testing"

func TestIntnAndInt63(t *testing.T) {
	s := New(3)
	for i := 0; i < 100; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if s.Int63() < 0 {
			t.Fatal("Int63 negative")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(4)
	p := s.Perm(make([]int, 20))
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormalStats(t *testing.T) {
	s := New(6)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += s.Normal(10, 2)
	}
	mean := sum / float64(n)
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("Normal mean = %v", mean)
	}
}
