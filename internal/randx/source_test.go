package randx

import (
	"math"
	"math/rand"
	"testing"

	"hhcw/internal/steady"
)

// requireSameStream draws n values of every kind from got and the math/rand
// reference in the same interleaved order and fails at the first mismatch.
// Floats compare by bit pattern.
func requireSameStream(t *testing.T, label string, got *Source, ref *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w uint64
		switch i % 6 {
		case 0:
			g, w = got.rng.Uint64(), ref.Uint64()
		case 1:
			g, w = uint64(got.Int63()), uint64(ref.Int63())
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(ref.Float64())
		case 3:
			m := 1 + i%1000
			if i%12 == 3 {
				m = 1<<40 + i // the Int63n branch of Intn
			}
			g, w = uint64(got.Intn(m)), uint64(ref.Intn(m))
		case 4:
			g, w = math.Float64bits(got.Normal(0, 1)), math.Float64bits(ref.NormFloat64())
		case 5:
			g, w = math.Float64bits(got.Exp(1)), math.Float64bits(ref.ExpFloat64())
		}
		if g != w {
			t.Fatalf("%s draw %d (kind %d): %#x != %#x", label, i, i%6, g, w)
		}
	}
	// Perm fills a caller buffer, here a dirty one, with rand.Perm's
	// permutation, and leaves both streams at the same point.
	buf := make([]int, n%64)
	for i := range buf {
		buf[i] = -1 - i
	}
	gp, wp := got.Perm(buf), ref.Perm(n%64)
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: Perm(%d) = %v, want %v", label, n%64, gp, wp)
		}
	}
	if g, w := got.Int63(), ref.Int63(); g != w {
		t.Fatalf("%s: draw after Perm(%d): %#x != %#x", label, n%64, g, w)
	}
}

// FuzzSourceMatchesMathRand pins Source to math/rand bit for bit: a fresh
// Source against rand.New(rand.NewSource(seed)), then the same Source
// reseeded in place mid-stream against a fresh reference, Perm into a
// caller buffer against rand.Perm included. The seed corpus
// covers the reduction's edges: zero (which math/rand remaps to 89482311),
// ±1, ±(2³¹−1) (which reduce to zero), 2³¹ and the int64 extremes.
func FuzzSourceMatchesMathRand(f *testing.F) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 1 << 31, 89482311, math.MinInt64, math.MaxInt64}
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)], uint16(700+i*400))
	}
	f.Fuzz(func(t *testing.T, seed, reseed int64, n uint16) {
		draws := int(n) % 4097
		s := New(seed)
		requireSameStream(t, "New", s, rand.New(rand.NewSource(seed)), draws)
		s.Reseed(reseed)
		requireSameStream(t, "Reseed", s, rand.New(rand.NewSource(reseed)), draws)
	})
}

// TestReseedAndForkIntoAllocateNothing pins the warm-path contract: reusing
// a Source costs no allocation, however much it draws.
func TestReseedAndForkIntoAllocateNothing(t *testing.T) {
	s := New(1)
	seed := int64(0)
	if n := steady.AllocsPerRun(100, func() {
		seed++
		s.Reseed(seed)
		for i := 0; i < 1000; i++ {
			s.Float64()
		}
	}); n != 0 {
		t.Fatalf("Reseed + 1000 draws: %v allocs, want 0", n)
	}
	dst := new(Source)
	if n := steady.AllocsPerRun(100, func() {
		*dst = Source{}
		s.ForkInto(dst).Float64()
	}); n != 0 {
		t.Fatalf("ForkInto a zero Source: %v allocs, want 0", n)
	}
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(int64(i)).Float64()
	}
}

func BenchmarkReseedDraw300(b *testing.B) {
	b.ReportAllocs()
	s := new(Source)
	for i := 0; i < b.N; i++ {
		s.Reseed(int64(i))
		for j := 0; j < 300; j++ {
			s.Float64()
		}
	}
}
