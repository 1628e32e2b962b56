package cwsi

import (
	"fmt"
	"sort"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/rm"
)

// Node profiling (§3.4): "since Lotaru and other research approaches that
// support heterogeneous infrastructures to predict task runtimes require
// machine characteristics, we are extending our CWSI to store such
// information and extend the prototype to gather these metrics with
// Kubestone." ProfileNodes runs a reference micro-benchmark on one node of
// every node type and stores the measured speed factors; Context.
// MeasuredSpeed serves them to strategies and predictors, so scheduling
// never has to trust declared hardware specs.

// ProfileReport records one node type's measurement.
type ProfileReport struct {
	NodeType      string
	MeasuredSpeed float64 // reference duration / observed duration
	DeclaredSpeed float64
}

// ProfileNodes benchmarks every node type with a probe of refDurSec seconds
// (on the reference machine) and stores measured speed factors in the CWS.
// It drives the engine until the probes complete.
func (c *CWS) ProfileNodes(refDurSec float64) ([]ProfileReport, error) {
	if refDurSec <= 0 {
		return nil, fmt.Errorf("cwsi: probe duration must be positive")
	}
	cl := c.mgr.Cluster()
	eng := cl.Engine()

	// One probe per node type, pinned by a strategy-independent direct
	// submission that names the target type in its ID and picks its node
	// via a one-shot pin strategy.
	types := cl.Types()
	remaining := len(types)
	results := make([]ProfileReport, 0, len(types))

	old := c.strategy
	defer func() { c.strategy = old }()

	for _, nt := range types {
		nt := nt
		pin := &pinStrategy{wantType: nt.Name}
		c.strategy = pin // probes run serially, so the pin stays valid
		c.mgr.Submit(&rm.Submission{
			TaskID: dag.TaskID("cws-probe-" + nt.Name),
			Name:   "cws-probe",
			Cores:  1,
			Runtime: func(n *cluster.Node) float64 {
				return refDurSec / n.Type.SpeedFactor
			},
			Done: func(r rm.Result) {
				remaining--
				observed := float64(r.FinishedAt - r.StartedAt)
				measured := refDurSec / observed
				if c.measuredSpeed == nil {
					c.measuredSpeed = map[string]float64{}
				}
				c.measuredSpeed[nt.Name] = measured
				results = append(results, ProfileReport{
					NodeType:      nt.Name,
					MeasuredSpeed: measured,
					DeclaredSpeed: nt.SpeedFactor,
				})
			},
		})
		eng.Run() // probes run serially so the pin strategy stays valid
	}
	if remaining != 0 {
		return nil, fmt.Errorf("cwsi: %d probes did not complete (node type with no free node?)", remaining)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].NodeType < results[j].NodeType })
	return results, nil
}

// MeasuredSpeed returns the profiled speed factor for a node's type, falling
// back to the declared factor when unprofiled.
func (ctx *Context) MeasuredSpeed(n *cluster.Node) float64 {
	if v, ok := ctx.cws.measuredSpeed[n.Type.Name]; ok {
		return v
	}
	return n.Type.SpeedFactor
}

// pinStrategy places everything on a single node type (used by probes).
type pinStrategy struct {
	wantType string
}

func (p *pinStrategy) Name() string                              { return "pin/" + p.wantType }
func (p *pinStrategy) Priority(*rm.Submission, *Context) float64 { return 0 }
func (p *pinStrategy) PickNode(_ *rm.Submission, candidates []*cluster.Node, _ *Context) *cluster.Node {
	for _, n := range candidates {
		if n.Type.Name == p.wantType {
			return n
		}
	}
	return nil
}
