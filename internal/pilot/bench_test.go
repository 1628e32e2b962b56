package pilot

import (
	"fmt"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// BenchmarkPilotScale10k exercises §4.1's RADICAL-Pilot scale claim — "up to
// 10^4 heterogeneous computing tasks" inside one allocation — end to end in
// virtual time.
func BenchmarkPilotScale10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cl := cluster.New(eng, "big", cluster.Spec{
			Type:  cluster.NodeType{Name: "n", Cores: 8, GPUs: 1, MemBytes: 1e12},
			Count: 2000,
		})
		bm := rm.NewBatchManager(cl, nil)
		p, err := Submit(bm, cl, Config{Nodes: 2000, Walltime: 1e7, SchedRate: 269, LaunchRate: 51})
		if err != nil {
			b.Fatal(err)
		}
		const n = 10000
		done := 0
		for j := 0; j < n; j++ {
			// heterogeneous shapes
			p.Submit(task(fmt.Sprintf("t%05d", j), 1+j%4, 300+float64(j%7)*100, func(r rm.Result) {
				if !r.Failed {
					done++
				}
			}))
		}
		eng.Run()
		if done != n {
			b.Fatalf("completed %d of %d", done, n)
		}
	}
}
