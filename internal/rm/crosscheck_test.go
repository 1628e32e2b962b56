package rm

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// The dispatch overhaul replaced the per-submission full node scan with the
// cluster's capacity index, and first-fit strategies now receive only the
// first fit, found by index descent. This file replays random tapes of
// submit / node-fail / node-repair operations through a
// strategy instrumented to rerun the old scan kernel at every placement
// decision, with and without a duration oracle arming EASY reservations:
// the candidate list the manager hands to PickNode must match the rescan,
// reservation-filtered, element for element in node-ID order — the whole
// list for a slice strategy, its first node for a declared first-fit one.
// Tapes hold bursts of equal requests, so a first-fit pass resumes its
// queries per request shape, and those picks are checked the same way. A
// mismatch dumps the offending tape to crosscheck_tape_failure.json so CI
// can attach it to the failing run.

// tapeOp is one replayable scheduler-facing operation.
type tapeOp struct {
	At    float64 `json:"at"`
	Op    string  `json:"op"` // submit | fail | repair
	ID    string  `json:"id,omitempty"`
	Cores int     `json:"cores,omitempty"`
	GPUs  int     `json:"gpus,omitempty"`
	Mem   float64 `json:"mem,omitempty"`
	Dur   float64 `json:"dur,omitempty"`
	Node  int     `json:"node,omitempty"`
}

// checkedFIFO is FIFO instrumented with the historical full-scan kernel as a
// test-only reference: every PickNode cross-checks its candidate slice.
// firstFit sets its FirstFitOnly declaration.
type checkedFIFO struct {
	t          *testing.T
	m          *TaskManager
	cl         *cluster.Cluster
	firstFit   bool
	tape       []tapeOp
	seed       int64
	checks     int
	heldOff    int // rescans that dropped the reserved node
	mismatched bool
	// resumed counts first-fit picks made without a reservation for the
	// same request shape as the pass's previous submission, which the
	// manager answers by resuming; advanced counts those whose node differs
	// from the previous pick, the resume past a node that filled up.
	resumed, advanced int

	// The pass being checked: its order, how far PickNode has come, and
	// the reservation the pass holds so far.
	order   []*Submission
	cursor  int
	resNode *cluster.Node
	shadow  sim.Time
	// prev is the submission before s in the pass's order, and prevPick the
	// last node this pass picked.
	prev     *Submission
	prevPick *cluster.Node
}

func (c *checkedFIFO) Name() string { return "checked-fifo" }

func (c *checkedFIFO) FirstFitOnly() bool { return c.firstFit }

func (c *checkedFIFO) Prioritize(p []*Submission) []*Submission {
	c.order, c.cursor, c.resNode, c.prev, c.prevPick = p, 0, nil, nil, nil
	return p
}

func (c *checkedFIFO) PickNode(s *Submission, candidates []*cluster.Node) *cluster.Node {
	c.checks++
	// This strategy never declines a candidate, so every submission the pass
	// went over before s must have had no node, and the first of them the
	// manager could reserve for holds the pass's reservation.
	for ; c.order[c.cursor] != s; c.cursor++ {
		skipped := c.order[c.cursor]
		if want := c.rescan(skipped); len(want) > 0 {
			c.mismatch(skipped, want, nil)
		}
		if c.resNode == nil && c.m.oracle != nil {
			c.resNode, c.shadow = c.m.reserve(skipped)
		}
		c.prev = skipped
	}
	c.cursor++
	if p := c.prev; c.firstFit && c.resNode == nil && p != nil && p.Cores == s.Cores && p.GPUs == s.GPUs && p.Mem == s.Mem {
		c.resumed++
		if len(candidates) > 0 && candidates[0] != c.prevPick {
			c.advanced++
		}
	}
	c.prev = s
	want := c.rescan(s)
	if c.firstFit && len(want) > 1 {
		want = want[:1]
	}
	ok := len(want) == len(candidates)
	if ok {
		for i := range want {
			if want[i] != candidates[i] {
				ok = false
				break
			}
		}
	}
	if !ok {
		c.mismatch(s, want, candidates)
	}
	if len(candidates) == 0 {
		return nil
	}
	c.prevPick = candidates[0]
	return candidates[0]
}

// rescan is the old kernel: scan every node in ID order and keep the
// feasible ones, dropping the pass's reserved node unless the oracle fits s
// into its hole.
func (c *checkedFIFO) rescan(s *Submission) []*cluster.Node {
	now := c.cl.Engine().Now()
	var want []*cluster.Node
	for _, n := range c.cl.Nodes() {
		if n.Down() {
			continue
		}
		if n.FreeCores() < s.Cores || n.FreeGPUs() < s.GPUs || n.FreeMem() < s.Mem {
			continue
		}
		if n == c.resNode {
			if d, ok := c.m.oracle(s, n); !ok || now+sim.Time(d) > c.shadow {
				c.heldOff++
				continue
			}
		}
		want = append(want, n)
	}
	return want
}

// mismatch reports the first divergence of a tape and dumps it.
func (c *checkedFIFO) mismatch(s *Submission, want, got []*cluster.Node) {
	if c.mismatched {
		return
	}
	c.mismatched = true
	c.dumpFailure(s, want, got)
	c.t.Errorf("seed %d, first-fit %v, oracle %v: index candidates diverge from full rescan for %s (%d cores/%d gpus/%.0f mem): index %d nodes, rescan %d",
		c.seed, c.firstFit, c.m.oracle != nil, s.TaskID, s.Cores, s.GPUs, s.Mem, len(got), len(want))
}

// dumpFailure writes the replayable tape plus the diverging query to
// crosscheck_tape_failure.json (uploaded as a CI artifact on test failure).
func (c *checkedFIFO) dumpFailure(s *Submission, want, got []*cluster.Node) {
	names := func(ns []*cluster.Node) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name()
		}
		return out
	}
	doc := map[string]any{
		"seed":      c.seed,
		"first_fit": c.firstFit,
		"oracle":    c.m.oracle != nil,
		"tape":      c.tape,
		"query": map[string]any{
			"id": s.TaskID, "cores": s.Cores, "gpus": s.GPUs, "mem": s.Mem,
			"at": float64(c.cl.Engine().Now()),
		},
		"rescan_candidates": names(want),
		"index_candidates":  names(got),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		_ = os.WriteFile("crosscheck_tape_failure.json", data, 0o644)
	}
}

// genTape builds a random operation tape: a burst of submissions with mixed
// shapes, runs of equal small requests submitted together, and node
// fail/repair churn.
func genTape(r *randx.Source, nodes int) []tapeOp {
	var tape []tapeOp
	n := 0
	for i := 0; i < 220; i++ {
		at := r.Float64() * 400
		switch r.Intn(10) {
		case 0: // fail a node
			tape = append(tape, tapeOp{At: at, Op: "fail", Node: r.Intn(nodes)})
		case 1: // repair a node
			tape = append(tape, tapeOp{At: at, Op: "repair", Node: r.Intn(nodes)})
		case 2: // a run of equal requests, enough to fill nodes
			op := tapeOp{At: at, Op: "submit", Cores: 1 + r.Intn(4), GPUs: r.Intn(2), Mem: float64(r.Intn(4)) * 4e9}
			for k := 2 + r.Intn(12); k > 0; k-- {
				op.ID, op.Dur = fmt.Sprintf("s%03d", n), 20+r.Float64()*200
				tape = append(tape, op)
				n++
			}
		default: // submit
			tape = append(tape, tapeOp{
				At: at, Op: "submit", ID: fmt.Sprintf("s%03d", n),
				Cores: 1 + r.Intn(12), GPUs: r.Intn(3), Mem: float64(r.Intn(20)) * 4e9,
				Dur: 20 + r.Float64()*200,
			})
			n++
		}
	}
	return tape
}

// replayTape schedules every tape operation at its virtual time; done, if
// not nil, receives every submission's terminal result.
func replayTape(eng *sim.Engine, cl *cluster.Cluster, m *TaskManager, tape []tapeOp, done func(Result)) {
	for _, op := range tape {
		op := op
		switch op.Op {
		case "submit":
			eng.At(sim.Time(op.At), func() {
				m.Submit(&Submission{
					TaskID: dag.TaskID(op.ID), Cores: op.Cores, GPUs: op.GPUs, Mem: op.Mem,
					Runtime: fixedRuntime(op.Dur), Done: done,
				})
			})
		case "fail":
			eng.At(sim.Time(op.At), func() { cl.FailNode(cl.Nodes()[op.Node]) })
		case "repair":
			eng.At(sim.Time(op.At), func() { cl.RepairNode(cl.Nodes()[op.Node]) })
		}
	}
}

// tapeOracle predicts every tape submission's exact duration, except that
// it stays cold for every third ID — those are kept off reserved nodes.
func tapeOracle(tape []tapeOp) DurationOracle {
	dur := map[string]float64{}
	for i, op := range tape {
		if op.Op == "submit" && i%3 != 0 {
			dur[op.ID] = op.Dur
		}
	}
	return func(s *Submission, _ *cluster.Node) (float64, bool) {
		d, ok := dur[string(s.TaskID)]
		return d, ok
	}
}

// tapeClusters are the shapes tapes replay on: three node families with no
// GPUs, where reservations land on the large right-hand nodes, and a
// homogeneous GPU cluster, where the reserved node is often the leftmost fit
// and first-fit placement must resume past it.
var tapeClusters = []struct {
	name string
	new  func(*sim.Engine) *cluster.Cluster
}{
	{"hetero", func(eng *sim.Engine) *cluster.Cluster { return cluster.Heterogeneous(eng, 5) }},
	{"uniform", func(eng *sim.Engine) *cluster.Cluster { return testCluster(eng, 6, 12) }},
}

func TestPrioritizeScanCrossCheckTapes(t *testing.T) {
	for _, shape := range tapeClusters {
		for _, firstFit := range []bool{false, true} {
			for _, withOracle := range []bool{false, true} {
				heldOff, resumed, advanced := 0, 0, 0
				for seed := int64(1); seed <= 6; seed++ {
					eng := sim.NewEngine()
					cl := shape.new(eng)
					strat := &checkedFIFO{t: t, cl: cl, seed: seed, firstFit: firstFit}
					m := NewTaskManager(cl, strat)
					strat.m = m
					tape := genTape(randx.New(seed*7919+3), cl.NodeCount())
					strat.tape = tape
					if withOracle {
						m.SetDurationOracle(tapeOracle(tape))
					}
					replayTape(eng, cl, m, tape, nil)
					eng.Run()
					if strat.checks == 0 {
						t.Fatalf("%s seed %d: tape produced no placement decisions", shape.name, seed)
					}
					if t.Failed() {
						return // the artifact describes the first divergence; stop here
					}
					heldOff += strat.heldOff
					resumed += strat.resumed
					advanced += strat.advanced
				}
				if withOracle && heldOff == 0 {
					t.Fatalf("%s, first-fit %v: no rescan ever met a reservation — the oracle tapes test nothing", shape.name, firstFit)
				}
				if firstFit && (resumed == 0 || advanced == 0) {
					t.Fatalf("%s, oracle %v: %d resumed first-fit picks, %d past a filled node — the runs of equal requests test nothing",
						shape.name, withOracle, resumed, advanced)
				}
			}
		}
	}
}

// hiddenFirstFit forwards a Strategy without its FirstFitter declaration,
// so the manager falls back to handing it the whole candidate list.
type hiddenFirstFit struct{ Strategy }

// tapeDigest replays a tape under strat, oracle optional, and renders every
// terminal result in completion order.
func tapeDigest(newCluster func(*sim.Engine) *cluster.Cluster, seed int64, strat Strategy, withOracle bool) string {
	eng := sim.NewEngine()
	cl := newCluster(eng)
	m := NewTaskManager(cl, strat)
	tape := genTape(randx.New(seed*7919+3), cl.NodeCount())
	if withOracle {
		m.SetDurationOracle(tapeOracle(tape))
	}
	var b strings.Builder
	replayTape(eng, cl, m, tape, func(r Result) {
		node := "-"
		if r.Node != nil {
			node = r.Node.Name()
		}
		fmt.Fprintf(&b, "%s@%s %v-%v %v;", r.Submission.TaskID, node, r.StartedAt, r.FinishedAt, r.Failed)
	})
	eng.Run()
	return b.String()
}

// The FirstFitter declaration is an optimization only: hiding it behind a
// wrapper, so placement goes through the full candidate list and the
// reservation filter, must leave every schedule byte-identical — on the
// random tapes with and without an oracle and on the canonical EASY
// backfill scenario.
func TestFirstFitDeclarationInvisible(t *testing.T) {
	for _, shape := range tapeClusters {
		for seed := int64(1); seed <= 6; seed++ {
			for _, withOracle := range []bool{false, true} {
				declared := tapeDigest(shape.new, seed, FIFO{}, withOracle)
				hidden := tapeDigest(shape.new, seed, hiddenFirstFit{FIFO{}}, withOracle)
				if declared != hidden {
					t.Fatalf("%s seed %d, oracle %v: declared first-fit schedule diverges from the slice path:\n declared %s\n hidden   %s",
						shape.name, seed, withOracle, declared, hidden)
				}
			}
		}
	}
	for _, withOracle := range []bool{false, true} {
		declared := backfillScenario(t, FIFO{}, withOracle)
		hidden := backfillScenario(t, hiddenFirstFit{FIFO{}}, withOracle)
		if !reflect.DeepEqual(declared, hidden) {
			t.Fatalf("oracle %v: backfill starts %v declared, %v hidden", withOracle, declared, hidden)
		}
	}
}
