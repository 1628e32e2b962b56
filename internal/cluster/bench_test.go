package cluster

import (
	"testing"

	"hhcw/internal/sim"
)

// BenchmarkIndexChurn measures one task's worth of index maintenance on a
// saturated 128×8 cluster: a wave of single-core reservations is released
// and then re-placed by FirstFit, so every op is one Release, one FirstFit
// descent and one AllocateInto — the stream-1m dispatch pattern.
func BenchmarkIndexChurn(b *testing.B) {
	c := New(sim.NewEngine(), "churn", Spec{
		Type:  NodeType{Name: "n", Cores: 8, MemBytes: 64e9},
		Count: 128,
	})
	wave := make([]Alloc, 128*8)
	place := func(a *Alloc) {
		n := c.FirstFit(0, 1, 0, 1e9)
		if n == nil {
			b.Fatal("no node fits a freed core")
		}
		if err := c.AllocateInto(a, n, 1, 0, 1e9); err != nil {
			b.Fatal(err)
		}
	}
	for i := range wave {
		place(&wave[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := min(len(wave), b.N-done)
		for i := range wave[:k] {
			c.Release(&wave[i])
		}
		for i := range wave[:k] {
			place(&wave[i])
		}
		done += k
	}
}
