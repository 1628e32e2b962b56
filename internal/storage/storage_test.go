package storage

import (
	"math"
	"testing"
	"testing/quick"

	"hhcw/internal/sim"
)

func TestPutGet(t *testing.T) {
	s := NewStore("fs", 100, 50, 0.5)
	wcost := s.Put(File{Name: "a", Bytes: 500})
	if math.Abs(wcost-(0.5+10)) > 1e-9 {
		t.Fatalf("write cost = %v, want 10.5", wcost)
	}
	f, rcost, ok := s.Get("a")
	if !ok || f.Bytes != 500 {
		t.Fatalf("Get: %v %v", f, ok)
	}
	if math.Abs(rcost-(0.5+5)) > 1e-9 {
		t.Fatalf("read cost = %v, want 5.5", rcost)
	}
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("Get on missing file returned ok")
	}
}

func TestZeroBandwidthIsFree(t *testing.T) {
	s := NewStore("fast", 0, 0, 0)
	if cost := s.Put(File{Name: "x", Bytes: 1e12}); cost != 0 {
		t.Fatalf("cost = %v, want 0", cost)
	}
}

func TestStoreAccounting(t *testing.T) {
	s := NewStore("fs", 0, 0, 0)
	s.Put(File{Name: "a", Bytes: 100})
	s.Put(File{Name: "b", Bytes: 200})
	s.Get("a")
	if s.Ops != 3 {
		t.Fatalf("Ops = %d, want 3", s.Ops)
	}
	if s.BytesWritten != 300 || s.BytesRead != 100 {
		t.Fatalf("bytes w=%v r=%v", s.BytesWritten, s.BytesRead)
	}
	if storedBytes(s) != 300 || len(s.files) != 2 {
		t.Fatalf("stored bytes=%v files=%d", storedBytes(s), len(s.files))
	}
	if got := s.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("List = %v", got)
	}
}

func TestPutOverwrites(t *testing.T) {
	s := NewStore("fs", 0, 0, 0)
	s.Put(File{Name: "a", Bytes: 100})
	s.Put(File{Name: "a", Bytes: 999})
	f, _, _ := s.Get("a")
	if f.Bytes != 999 {
		t.Fatalf("overwrite failed: %v", f.Bytes)
	}
	if len(s.files) != 1 {
		t.Fatalf("%d files after overwrite", len(s.files))
	}
}

// storedBytes returns the sum of s's stored file sizes.
func storedBytes(s *Store) float64 {
	sum := 0.0
	for _, f := range s.files {
		sum += f.Bytes
	}
	return sum
}

func TestTransferTiming(t *testing.T) {
	eng := sim.NewEngine()
	src := NewStore("hpc", 0, 0, 0)
	dst := NewStore("cloud", 0, 0, 0)
	ts := NewTransferService(eng)
	ts.SetLink("hpc", "cloud", Link{BandwidthBps: 100, LatencySec: 2})
	src.Put(File{Name: "data", Bytes: 800})

	var doneAt sim.Time
	ts.Transfer(src, dst, "data", func(err error) {
		if err != nil {
			t.Errorf("transfer error: %v", err)
		}
		doneAt = eng.Now()
	})
	eng.Run()
	if doneAt != 10 { // 2s latency + 800/100
		t.Fatalf("transfer completed at %v, want 10", doneAt)
	}
	if !dst.Has("data") {
		t.Fatal("file not at destination")
	}
	if dst.BytesWritten != 800 || dst.Ops != 1 {
		t.Fatalf("accounting: written=%v ops=%d", dst.BytesWritten, dst.Ops)
	}
}

func TestTransferMissingSource(t *testing.T) {
	eng := sim.NewEngine()
	src := NewStore("a", 0, 0, 0)
	dst := NewStore("b", 0, 0, 0)
	ts := NewTransferService(eng)
	var gotErr error
	called := false
	ts.Transfer(src, dst, "ghost", func(err error) { gotErr = err; called = true })
	eng.Run()
	if !called || gotErr == nil {
		t.Fatalf("missing-source transfer: called=%v err=%v", called, gotErr)
	}
}

func TestTransferDefaultLinkInstant(t *testing.T) {
	eng := sim.NewEngine()
	src := NewStore("a", 0, 0, 0)
	dst := NewStore("b", 0, 0, 0)
	src.Put(File{Name: "f", Bytes: 1e9})
	ts := NewTransferService(eng)
	var at sim.Time = -1
	ts.Transfer(src, dst, "f", func(error) { at = eng.Now() })
	eng.Run()
	if at != 0 {
		t.Fatalf("default link should be instant, done at %v", at)
	}
}

// Property: transferring any set of files conserves sizes and completes all
// callbacks.
func TestTransferConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine()
		src := NewStore("s", 0, 0, 0)
		dst := NewStore("d", 0, 0, 0)
		ts := NewTransferService(eng)
		ts.SetLink("s", "d", Link{BandwidthBps: 1000, LatencySec: 0.1})
		want := 0.0
		for i, sz := range sizes {
			name := string(rune('a'+i%26)) + string(rune('0'+i%10))
			src.Put(File{Name: name, Bytes: float64(sz)})
		}
		done := 0
		for _, name := range src.List() {
			f, _, _ := src.Get(name)
			want += f.Bytes
			ts.Transfer(src, dst, name, func(err error) {
				if err == nil {
					done++
				}
			})
		}
		eng.Run()
		return done == len(src.files) && math.Abs(storedBytes(dst)-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedLinkBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	src := NewStore("a", 0, 0, 0)
	dst := NewStore("b", 0, 0, 0)
	ts := NewTransferService(eng)
	ts.SetLink("a", "b", Link{BandwidthBps: 100})
	src.Put(File{Name: "x", Bytes: 1000})
	src.Put(File{Name: "y", Bytes: 1000})
	var xAt, yAt sim.Time
	ts.Transfer(src, dst, "x", func(error) { xAt = eng.Now() })
	ts.Transfer(src, dst, "y", func(error) { yAt = eng.Now() })
	eng.Run()
	// Two 1000-byte transfers sharing 100 B/s: each progresses at 50 B/s
	// and both finish at t=20 (vs 10 each if unshared).
	if xAt != 20 || yAt != 20 {
		t.Fatalf("shared completions at %v/%v, want 20/20", xAt, yAt)
	}
}

func TestSharedLinkLateJoiner(t *testing.T) {
	eng := sim.NewEngine()
	src := NewStore("a", 0, 0, 0)
	dst := NewStore("b", 0, 0, 0)
	ts := NewTransferService(eng)
	ts.SetLink("a", "b", Link{BandwidthBps: 100})
	src.Put(File{Name: "x", Bytes: 1000})
	src.Put(File{Name: "y", Bytes: 1000})
	var xAt, yAt sim.Time
	ts.Transfer(src, dst, "x", func(error) { xAt = eng.Now() })
	eng.At(5, func() {
		ts.Transfer(src, dst, "y", func(error) { yAt = eng.Now() })
	})
	eng.Run()
	// x: 500 bytes alone (t=0..5), then shares: remaining 500 at 50 B/s →
	// done at t=15. y then gets full bandwidth: remaining 500 at t=15, 100
	// B/s → done at t=20.
	if xAt != 15 {
		t.Fatalf("x done at %v, want 15", xAt)
	}
	if yAt != 20 {
		t.Fatalf("y done at %v, want 20", yAt)
	}
}

func TestSharedLinkIndependentLinks(t *testing.T) {
	eng := sim.NewEngine()
	a := NewStore("a", 0, 0, 0)
	b := NewStore("b", 0, 0, 0)
	c := NewStore("c", 0, 0, 0)
	ts := NewTransferService(eng)
	ts.SetLink("a", "b", Link{BandwidthBps: 100})
	ts.SetLink("a", "c", Link{BandwidthBps: 100})
	a.Put(File{Name: "x", Bytes: 1000})
	a.Put(File{Name: "y", Bytes: 1000})
	var xAt, yAt sim.Time
	ts.Transfer(a, b, "x", func(error) { xAt = eng.Now() })
	ts.Transfer(a, c, "y", func(error) { yAt = eng.Now() })
	eng.Run()
	// Different links: no sharing, both done at 10.
	if xAt != 10 || yAt != 10 {
		t.Fatalf("independent links shared: %v/%v", xAt, yAt)
	}
}

func TestSharedLinkLatencyUpFront(t *testing.T) {
	eng := sim.NewEngine()
	src := NewStore("a", 0, 0, 0)
	dst := NewStore("b", 0, 0, 0)
	ts := NewTransferService(eng)
	ts.SetLink("a", "b", Link{BandwidthBps: 100, LatencySec: 3})
	src.Put(File{Name: "x", Bytes: 1000})
	var xAt sim.Time
	ts.Transfer(src, dst, "x", func(error) { xAt = eng.Now() })
	eng.Run()
	if xAt != 13 {
		t.Fatalf("done at %v, want 13 (3 latency + 10 streaming)", xAt)
	}
}
