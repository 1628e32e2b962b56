package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

func twoNodeCluster(eng *sim.Engine) *Cluster {
	return New(eng, "t", Spec{
		Type:  NodeType{Name: "n", Cores: 4, GPUs: 2, MemBytes: 100},
		Count: 2,
	})
}

func TestAllocateRelease(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng)
	n := c.Nodes()[0]
	a, err := c.Allocate(n, 3, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if n.FreeCores() != 1 || n.FreeGPUs() != 1 || n.FreeMem() != 50 {
		t.Fatalf("free after alloc: %d cores %d gpus %v mem", n.FreeCores(), n.FreeGPUs(), n.FreeMem())
	}
	c.Release(a)
	if n.FreeCores() != 4 || n.FreeGPUs() != 2 || n.FreeMem() != 100 {
		t.Fatal("release did not restore capacity")
	}
	// Double release is a no-op.
	c.Release(a)
	if n.FreeCores() != 4 {
		t.Fatal("double release inflated capacity")
	}
}

func TestAllocateOverCapacity(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng)
	n := c.Nodes()[0]
	if _, err := c.Allocate(n, 5, 0, 0); err == nil {
		t.Fatal("over-core allocation succeeded")
	}
	if _, err := c.Allocate(n, 0, 3, 0); err == nil {
		t.Fatal("over-GPU allocation succeeded")
	}
	if _, err := c.Allocate(n, 0, 0, 101); err == nil {
		t.Fatal("over-memory allocation succeeded")
	}
	if _, err := c.Allocate(n, -1, 0, 0); err == nil {
		t.Fatal("negative allocation succeeded")
	}
	// NaN compares false against everything; accepted, it would poison the
	// node's free-memory ledger.
	if _, err := c.Allocate(n, 1, 0, math.NaN()); err == nil {
		t.Fatal("NaN-memory allocation succeeded")
	}
	if err := c.AllocateInto(&Alloc{}, n, 1, 0, math.NaN()); err == nil {
		t.Fatal("NaN-memory AllocateInto succeeded")
	}
	// Failed allocations must not leak capacity.
	if n.FreeCores() != 4 || n.FreeGPUs() != 2 || n.FreeMem() != 100 {
		t.Fatal("failed allocation changed capacity")
	}
}

func TestFailNode(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng)
	n := c.Nodes()[0]
	var failed *Node
	c.OnNodeDown(func(x *Node) { failed = x })
	c.FailNode(n)
	if failed != n {
		t.Fatal("OnNodeDown not invoked")
	}
	if !n.Down() {
		t.Fatal("node not marked down")
	}
	if _, err := c.Allocate(n, 1, 0, 0); err == nil {
		t.Fatal("allocation on down node succeeded")
	}
	if got := len(c.UpNodes()); got != 1 {
		t.Fatalf("UpNodes = %d, want 1", got)
	}
	c.RepairNode(n)
	if n.Down() || n.FreeCores() != 4 {
		t.Fatal("repair did not restore node")
	}
}

// UpCount must equal len(UpNodes()) through failures, repeated failures and
// repairs of one node, repairs of an up node, and Reset.
func TestUpCount(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "t", Spec{Type: NodeType{Name: "n", Cores: 4}, Count: 5})
	rng := randx.New(3)
	for i := 0; i < 200; i++ {
		n := c.Nodes()[rng.Intn(5)]
		if rng.Bernoulli(0.5) {
			c.FailNode(n)
		} else {
			c.RepairNode(n)
		}
		if i == 120 {
			c.Reset()
		}
		if got, want := c.UpCount(), len(c.UpNodes()); got != want {
			t.Fatalf("step %d: UpCount = %d, want %d", i, got, want)
		}
	}
}

func TestUtilization(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng) // 8 cores total
	n := c.Nodes()[0]
	var a *Alloc
	eng.At(0, func() { a, _ = c.Allocate(n, 4, 0, 0) })
	eng.At(10, func() { c.Release(a) })
	eng.At(20, func() {})
	eng.Run()
	// 4 cores for 10s out of 8 cores for 20s = 0.25.
	if got := c.Utilization(20); got != 0.25 {
		t.Fatalf("Utilization = %v, want 0.25", got)
	}
	// The integral keeps no samples: a window ending before the last
	// release (t=10) cannot be answered.
	defer func() {
		if recover() == nil {
			t.Fatal("Utilization(5) before the last release did not panic")
		}
	}()
	c.Utilization(5)
}

func TestFrontierShape(t *testing.T) {
	eng := sim.NewEngine()
	c := Frontier(eng, 8000)
	if c.totalCores != 448000 {
		t.Fatalf("Frontier cores = %d, want 448000", c.totalCores)
	}
	if gpus := c.NodeCount() * c.Types()[0].GPUs; gpus != 64000 {
		t.Fatalf("Frontier GPUs = %d, want 64000", gpus)
	}
}

func TestHeterogeneousFactors(t *testing.T) {
	eng := sim.NewEngine()
	c := Heterogeneous(eng, 2)
	if c.NodeCount() != 6 {
		t.Fatalf("NodeCount = %d", c.NodeCount())
	}
	if len(c.Types()) != 3 {
		t.Fatalf("Types = %d", len(c.Types()))
	}
	if c.Types()[0].SpeedFactor >= c.Types()[2].SpeedFactor {
		t.Fatal("expected increasing speed factors")
	}
}

func TestDefaultFactorsFillIn(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "t", Spec{Type: NodeType{Name: "n", Cores: 1}, Count: 1})
	nt := c.Types()[0]
	if nt.SpeedFactor != 1 || nt.IOFactor != 1 {
		t.Fatalf("default factors = %v/%v, want 1/1", nt.SpeedFactor, nt.IOFactor)
	}
}

// Property: any sequence of valid allocate/release pairs conserves capacity.
func TestCapacityConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.NewEngine()
		c := New(eng, "t", Spec{Type: NodeType{Name: "n", Cores: 10, GPUs: 4, MemBytes: 1000}, Count: 3})
		var live []*Alloc
		for _, op := range ops {
			n := c.Nodes()[int(op)%3]
			if op%2 == 0 {
				cores := int(op/2)%4 + 1
				if a, err := c.Allocate(n, cores, int(op)%2, float64(op)); err == nil {
					live = append(live, a)
				}
			} else if len(live) > 0 {
				c.Release(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		for _, a := range live {
			c.Release(a)
		}
		for _, n := range c.Nodes() {
			if n.FreeCores() != 10 || n.FreeGPUs() != 4 || n.FreeMem() != 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterAccessors(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng)
	if c.Engine() != eng {
		t.Fatal("Engine accessor")
	}
	if c.Utilization(0) != 0 {
		t.Fatal("zero-span utilization should be 0")
	}
}
