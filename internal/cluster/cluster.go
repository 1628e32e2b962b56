// Package cluster models a heterogeneous HPC cluster: nodes with cores, GPUs
// and memory, grouped into node types with distinct machine speed factors
// (the heterogeneity Lotaru/Tarema exploit, §3.4), plus allocation tracking
// and node failure and repair (the node failures EnTK recovers from, §4.3,
// which internal/fault injects).
//
// The cluster is a passive resource ledger: resource managers (internal/rm)
// and pilots (internal/pilot) decide placement; the cluster enforces capacity
// invariants and integrates core utilization.
package cluster

import (
	"fmt"

	"hhcw/internal/sim"
)

// NodeType describes a homogeneous family of nodes.
type NodeType struct {
	Name     string
	Cores    int
	GPUs     int
	MemBytes float64
	// SpeedFactor scales task durations: a task's nominal duration is
	// divided by SpeedFactor on this node type (1.0 = reference machine).
	SpeedFactor float64
	// IOFactor scales I/O-bound phase durations similarly.
	IOFactor float64
}

// Node is one machine in the cluster.
type Node struct {
	ID   int
	Type *NodeType

	freeCores int
	freeGPUs  int
	freeMem   float64
	down      bool
	// stale marks a node whose counters changed since the capacity index
	// last refreshed its leaf.
	stale bool
	// epoch increments at every failure; allocations remember the epoch
	// they were granted in so releases from before a crash cannot credit
	// capacity the repair already reset.
	epoch int
	// name memoizes Name(): the scheduler hot path records placements by
	// node name, and re-rendering it per record was a measurable share of
	// steady-state allocations.
	name string
}

// FreeCores returns currently unallocated cores.
func (n *Node) FreeCores() int { return n.freeCores }

// FreeGPUs returns currently unallocated GPUs.
func (n *Node) FreeGPUs() int { return n.freeGPUs }

// FreeMem returns currently unallocated memory in bytes.
func (n *Node) FreeMem() float64 { return n.freeMem }

// Down reports whether the node has failed.
func (n *Node) Down() bool { return n.down }

// Name returns a stable human-readable node name.
func (n *Node) Name() string {
	if n.name == "" {
		n.name = fmt.Sprintf("%s-%04d", n.Type.Name, n.ID)
	}
	return n.name
}

// Alloc is a resource reservation on a single node.
type Alloc struct {
	Node  *Node
	Cores int
	GPUs  int
	Mem   float64

	released bool
	epoch    int
}

// Revoked reports whether the node failed after this allocation was granted:
// the reservation no longer backs any capacity, even if the node has since
// been repaired.
func (a *Alloc) Revoked() bool { return a.epoch != a.Node.epoch }

// Cluster is a set of nodes plus utilization accounting.
type Cluster struct {
	Name  string
	nodes []*Node
	types []*NodeType
	idx   *capIndex

	eng *sim.Engine

	totalCores int
	// downCount is the number of nodes down now, kept by FailNode and
	// RepairNode so UpCount needs no scan.
	downCount int
	// usedCores is the number of cores allocated now. coreSec integrates it
	// over virtual time up to usedAt, the instant it last changed, so
	// Utilization needs no per-event samples.
	usedCores int
	usedAt    sim.Time
	coreSec   float64

	// onNodeDown callbacks fire when a node fails, letting runtimes kill
	// and resubmit affected work.
	onNodeDown []func(*Node)
	// onNodeUp callbacks fire when a node is repaired, letting runtimes
	// kick their schedulers at restored capacity (without this, work queued
	// while the whole cluster was down would wait forever).
	onNodeUp []func(*Node)
}

// New builds a cluster on the given engine from (type, count) specs.
func New(eng *sim.Engine, name string, specs ...Spec) *Cluster {
	c := &Cluster{Name: name, eng: eng}
	id := 0
	for _, s := range specs {
		nt := s.Type
		if nt.SpeedFactor == 0 {
			nt.SpeedFactor = 1
		}
		if nt.IOFactor == 0 {
			nt.IOFactor = 1
		}
		tcopy := nt
		c.types = append(c.types, &tcopy)
		// One slab per spec instead of one heap object per node: large
		// clusters (the paper's 8,000-node Frontier runs) are rebuilt per
		// simulation, and per-node allocation dominated construction.
		slab := make([]Node, s.Count)
		for i := 0; i < s.Count; i++ {
			n := &slab[i]
			n.ID = id
			n.Type = &tcopy
			n.freeCores = tcopy.Cores
			n.freeGPUs = tcopy.GPUs
			n.freeMem = tcopy.MemBytes
			id++
			c.nodes = append(c.nodes, n)
			c.totalCores += tcopy.Cores
		}
	}
	c.idx = newCapIndex(c.nodes)
	return c
}

// Reset returns the cluster to its just-constructed state in place: every
// node back to full free capacity, up, and at epoch zero; the segment index
// rebuilt over the same backing arrays; the utilization integral zeroed.
// Construction-time identity survives — node slabs, memoized node names, and
// registered OnNodeDown/OnNodeUp subscribers are all retained, which is
// exactly why warm sessions must not re-register their callbacks after Reset.
func (c *Cluster) Reset() {
	for _, n := range c.nodes {
		n.freeCores = n.Type.Cores
		n.freeGPUs = n.Type.GPUs
		n.freeMem = n.Type.MemBytes
		n.down = false
		n.epoch = 0
	}
	c.idx.reset()
	c.downCount = 0
	c.usedCores, c.usedAt, c.coreSec = 0, 0, 0
}

// Spec pairs a node type with a node count for cluster construction.
type Spec struct {
	Type  NodeType
	Count int
}

// Engine returns the simulation engine the cluster runs on.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Nodes returns all nodes (including down ones).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Types returns the node types in declaration order.
func (c *Cluster) Types() []*NodeType { return c.types }

// NodeCount returns the number of nodes.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// UpCount returns the number of nodes that are not down, without building
// the list UpNodes returns.
func (c *Cluster) UpCount() int { return len(c.nodes) - c.downCount }

// UpNodes returns nodes that are not down.
func (c *Cluster) UpNodes() []*Node {
	up := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.down {
			up = append(up, n)
		}
	}
	return up
}

// FoldMetrics does nothing. The cluster keeps no per-event series, only the
// running core-second integral behind Utilization, so there is nothing left
// to fold; the method remains only because the benchmark module still calls
// it.
func (c *Cluster) FoldMetrics() {}

// addUsedCores moves the allocated-core level by delta at the current
// instant, first closing the core-second integral at the old level.
func (c *Cluster) addUsedCores(delta int) {
	now := c.eng.Now()
	c.coreSec += float64(c.usedCores) * float64(now-c.usedAt)
	c.usedCores += delta
	c.usedAt = now
}

// Allocate reserves cores/GPUs/memory on node n. It returns an error when
// the node is down or lacks capacity; partial allocation never occurs.
func (c *Cluster) Allocate(n *Node, cores, gpus int, mem float64) (*Alloc, error) {
	if n.down {
		return nil, fmt.Errorf("cluster: node %s is down", n.Name())
	}
	if cores < 0 || gpus < 0 || !(mem >= 0) { // !(mem >= 0) also rejects NaN
		return nil, fmt.Errorf("cluster: negative or NaN resource request (%d cores, %d gpus, %.0f mem)", cores, gpus, mem)
	}
	if cores > n.freeCores || gpus > n.freeGPUs || mem > n.freeMem {
		return nil, fmt.Errorf("cluster: node %s cannot fit %d cores/%d gpus/%.0fB (free %d/%d/%.0fB)",
			n.Name(), cores, gpus, mem, n.freeCores, n.freeGPUs, n.freeMem)
	}
	n.freeCores -= cores
	n.freeGPUs -= gpus
	n.freeMem -= mem
	c.idx.update(n)
	c.addUsedCores(cores)
	return &Alloc{Node: n, Cores: cores, GPUs: gpus, Mem: mem, epoch: n.epoch}, nil
}

// AllocateInto is Allocate backed by a caller-provided record: dst is
// overwritten with the new reservation on success and untouched on error.
// It lets a manager that grants and releases one reservation per task
// recycle records instead of heap-allocating each. The caller must own dst
// exclusively and must not reuse it until the previous reservation written
// through it has been released.
func (c *Cluster) AllocateInto(dst *Alloc, n *Node, cores, gpus int, mem float64) error {
	if n.down {
		return fmt.Errorf("cluster: node %s is down", n.Name())
	}
	if cores < 0 || gpus < 0 || !(mem >= 0) { // !(mem >= 0) also rejects NaN
		return fmt.Errorf("cluster: negative or NaN resource request (%d cores, %d gpus, %.0f mem)", cores, gpus, mem)
	}
	if cores > n.freeCores || gpus > n.freeGPUs || mem > n.freeMem {
		return fmt.Errorf("cluster: node %s cannot fit %d cores/%d gpus/%.0fB (free %d/%d/%.0fB)",
			n.Name(), cores, gpus, mem, n.freeCores, n.freeGPUs, n.freeMem)
	}
	n.freeCores -= cores
	n.freeGPUs -= gpus
	n.freeMem -= mem
	c.idx.update(n)
	c.addUsedCores(cores)
	*dst = Alloc{Node: n, Cores: cores, GPUs: gpus, Mem: mem, epoch: n.epoch}
	return nil
}

// AllocateAll reserves every listed node in full (the whole-node grants a
// batch manager hands out), backing all reservations with one slab instead
// of one heap object per node. On any failure it rolls the granted prefix
// back and returns the error, leaving the cluster unchanged.
func (c *Cluster) AllocateAll(nodes []*Node) ([]*Alloc, error) {
	slab := make([]Alloc, len(nodes))
	out := make([]*Alloc, len(nodes))
	for i, n := range nodes {
		if n.down {
			for _, a := range out[:i] {
				c.Release(a)
			}
			return nil, fmt.Errorf("cluster: node %s is down", n.Name())
		}
		if n.freeCores < n.Type.Cores || n.freeGPUs < n.Type.GPUs || n.freeMem < n.Type.MemBytes {
			for _, a := range out[:i] {
				c.Release(a)
			}
			return nil, fmt.Errorf("cluster: node %s is not wholly free (%d/%d/%.0fB free)",
				n.Name(), n.freeCores, n.freeGPUs, n.freeMem)
		}
		n.freeCores -= n.Type.Cores
		n.freeGPUs -= n.Type.GPUs
		n.freeMem -= n.Type.MemBytes
		c.idx.update(n)
		c.addUsedCores(n.Type.Cores)
		slab[i] = Alloc{Node: n, Cores: n.Type.Cores, GPUs: n.Type.GPUs, Mem: n.Type.MemBytes, epoch: n.epoch}
		out[i] = &slab[i]
	}
	return out, nil
}

// Release returns an allocation's resources. Releasing twice is a no-op, so
// failure paths can release defensively. A revoked allocation (node failed
// after the grant) only settles the used-core level: the node's free
// counters were reset by RepairNode, and crediting them again would
// manufacture capacity beyond the node's physical total.
func (c *Cluster) Release(a *Alloc) {
	if a == nil || a.released {
		return
	}
	a.released = true
	c.addUsedCores(-a.Cores)
	if a.Revoked() {
		return
	}
	a.Node.freeCores += a.Cores
	a.Node.freeGPUs += a.GPUs
	a.Node.freeMem += a.Mem
	c.idx.update(a.Node)
}

// OnNodeDown registers a callback invoked when any node fails.
func (c *Cluster) OnNodeDown(fn func(*Node)) { c.onNodeDown = append(c.onNodeDown, fn) }

// OnNodeUp registers a callback invoked when any node is repaired.
func (c *Cluster) OnNodeUp(fn func(*Node)) { c.onNodeUp = append(c.onNodeUp, fn) }

// FailNode marks a node down immediately and notifies subscribers. Resources
// currently allocated on the node are NOT auto-released: the owning runtime
// must release them from its failure handler (mirroring how a real RM reaps
// jobs from a dead node).
func (c *Cluster) FailNode(n *Node) {
	if n.down {
		return
	}
	n.down = true
	n.epoch++
	c.downCount++
	c.idx.update(n)
	for _, fn := range c.onNodeDown {
		fn(n)
	}
}

// RepairNode brings a failed node back with full capacity free and notifies
// subscribers. Allocations that were live at failure time are revoked (their
// epoch no longer matches), so a straggling Release cannot credit free
// capacity on top of this reset.
func (c *Cluster) RepairNode(n *Node) {
	if !n.down {
		return
	}
	n.down = false
	c.downCount--
	n.freeCores = n.Type.Cores
	n.freeGPUs = n.Type.GPUs
	n.freeMem = n.Type.MemBytes
	c.idx.update(n)
	for _, fn := range c.onNodeUp {
		fn(n)
	}
}

// Utilization returns time-averaged core utilization over [0,until] as a
// fraction of total cores. until must not precede the last allocation or
// release: the integral keeps no samples to answer for an earlier window.
func (c *Cluster) Utilization(until sim.Time) float64 {
	if c.totalCores == 0 || until <= 0 {
		return 0
	}
	if until < c.usedAt {
		panic(fmt.Sprintf("cluster: Utilization(%v) before the last allocation change at %v", until, c.usedAt))
	}
	coreSec := c.coreSec
	if until > c.usedAt {
		coreSec += float64(c.usedCores) * float64(until-c.usedAt)
	}
	return coreSec / (float64(c.totalCores) * float64(until))
}

// Frontier builds a Frontier-like cluster: the paper's runs used nodes with
// 64 cores (56 usable for compute after 8 reserved for system processes) and
// 8 GPUs. We model the usable 56 cores + 8 GPUs directly so 8000 nodes gives
// the paper's 448,000 CPU cores and 64,000 GPUs (Fig 4 caption).
func Frontier(eng *sim.Engine, nodes int) *Cluster {
	return New(eng, "frontier", Spec{
		Type: NodeType{
			Name:        "frontier",
			Cores:       56,
			GPUs:        8,
			MemBytes:    512e9,
			SpeedFactor: 1.0,
			IOFactor:    1.0,
		},
		Count: nodes,
	})
}

// Heterogeneous builds a small heterogeneous commodity cluster like the
// Lotaru/Tarema test-beds: three node families with distinct speed factors.
func Heterogeneous(eng *sim.Engine, perType int) *Cluster {
	return New(eng, "hetero",
		Spec{Type: NodeType{Name: "a", Cores: 8, MemBytes: 32e9, SpeedFactor: 1.0, IOFactor: 1.0}, Count: perType},
		Spec{Type: NodeType{Name: "b", Cores: 16, MemBytes: 64e9, SpeedFactor: 1.4, IOFactor: 1.2}, Count: perType},
		Spec{Type: NodeType{Name: "c", Cores: 32, MemBytes: 128e9, SpeedFactor: 2.0, IOFactor: 1.5}, Count: perType},
	)
}
