package fault

import (
	"fmt"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

func testCluster(eng *sim.Engine, nodes int) *cluster.Cluster {
	return cluster.New(eng, "chaos", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 8, MemBytes: 64e9},
		Count: nodes,
	})
}

func TestProfileByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("ByName(%q).Name = %q", name, p.Name)
		}
		if name == "none" && p.Enabled() {
			t.Fatal("none profile must be disabled")
		}
		if name != "none" && !p.Enabled() {
			t.Fatalf("%q profile must be enabled", name)
		}
	}
	if p, err := ByName(""); err != nil || p.Enabled() {
		t.Fatal("empty name must resolve to the disabled profile")
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestPlanTaskFailures(t *testing.T) {
	p := Profile{TaskFailProb: 1, TaskFailPersist: 3}
	plan := p.PlanTaskFailures(5, randx.New(1))
	for i, n := range plan {
		if n != 3 {
			t.Fatalf("plan[%d] = %d, want persist 3 at prob 1", i, n)
		}
	}
	p = Profile{TaskFailProb: 0}
	for _, n := range p.PlanTaskFailures(5, randx.New(1)) {
		if n != 0 {
			t.Fatal("prob 0 must plan no failures")
		}
	}
	// Deterministic per seed.
	p = Profile{TaskFailProb: 0.5, TaskFailPersist: 1}
	a := p.PlanTaskFailures(100, randx.New(7))
	b := p.PlanTaskFailures(100, randx.New(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different plans")
		}
	}
}

func TestInjectorMTBFFailsAndRepairs(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 4)
	inj := NewInjector(cl, randx.New(3), Profile{
		Name: "mtbf", NodeMTBFSec: 300, NodeMTTRSec: 100,
	})
	inj.Start()
	eng.RunUntil(4 * 3600)
	inj.Stop()
	eng.Run()
	st := inj.Stats()
	if st.NodeFailures == 0 {
		t.Fatal("no node failures over 4h at MTBF 300s")
	}
	if st.NodeRepairs == 0 {
		t.Fatal("no repairs despite MTTR 100s")
	}
	if st.NodeRepairs > st.NodeFailures {
		t.Fatalf("repairs %d > failures %d", st.NodeRepairs, st.NodeFailures)
	}
}

func TestInjectorNeverKillsLastNode(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 1)
	inj := NewInjector(cl, randx.New(3), Profile{Name: "mtbf", NodeMTBFSec: 60})
	inj.Start()
	eng.RunUntil(24 * 3600)
	inj.Stop()
	eng.Run()
	if inj.Stats().NodeFailures != 0 {
		t.Fatal("single-node cluster must never lose its last node")
	}
	if len(cl.UpNodes()) != 1 {
		t.Fatal("node went down")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() InjectStats {
		eng := sim.NewEngine()
		cl := testCluster(eng, 6)
		inj := NewInjector(cl, randx.New(11), Storm())
		inj.Start()
		eng.RunUntil(6 * 3600)
		inj.Stop()
		eng.Run()
		return inj.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different chaos: %+v vs %+v", a, b)
	}
	if a.NodeFailures == 0 || a.Reclaims == 0 || a.IOEpisodes == 0 {
		t.Fatalf("storm profile under-delivered: %+v", a)
	}
}

func TestInjectorReclaimWarning(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 3)
	inj := NewInjector(cl, randx.New(5), Profile{
		Name: "spot", ReclaimPerHour: 12, ReclaimWarnSec: 120, NodeMTTRSec: 60,
	})
	// The profile fails nodes only by reclaim, so every node loss is one,
	// ReclaimWarnSec after its notice.
	var downAt []sim.Time
	cl.OnNodeDown(func(*cluster.Node) { downAt = append(downAt, eng.Now()) })
	inj.Start()
	eng.RunUntil(2 * 3600)
	inj.Stop()
	eng.Run()
	reclaims := inj.Stats().Reclaims
	if len(downAt) == 0 || reclaims == 0 {
		t.Fatalf("no reclaims at 12/h: downs=%d stats=%+v", len(downAt), inj.Stats())
	}
	// Stop cancels the losses still inside their notice window.
	if len(downAt) > reclaims {
		t.Fatalf("%d node losses from %d reclaims", len(downAt), reclaims)
	}
	if downAt[0] < 120 {
		t.Fatalf("first reclaim took its node at t=%v, inside the 120s notice", downAt[0])
	}
}

func TestInjectorIOEpisodeScalesRuntime(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 2)
	inj := NewInjector(cl, randx.New(9), Profile{
		Name: "io", IOEpisodePerHour: 1000, IOEpisodeDurSec: 300, IOEpisodeFactor: 3,
	})
	inj.Start()
	// With ~1000 episodes/hour the very first lands within seconds.
	eng.RunUntil(60)
	if inj.RuntimeScale() != 3 {
		t.Fatalf("RuntimeScale = %v during episode, want 3", inj.RuntimeScale())
	}
	inj.Stop()
	eng.Run()
	if inj.Stats().IOEpisodes == 0 {
		t.Fatal("no I/O episodes recorded")
	}
}

func TestInjectorStopDrainsEngine(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 4)
	inj := NewInjector(cl, randx.New(2), Storm())
	inj.Start()
	// Simulated workload finishes at t=500: stop the injector there and the
	// engine must drain rather than chase renewal events forever.
	eng.At(500, func() { inj.Stop() })
	eng.Run()
	if eng.Now() > sim.Time(500+Storm().NodeMTTRSec*100) {
		t.Fatalf("engine ran far past Stop: now=%v", eng.Now())
	}
}

func TestProfileStringsStable(t *testing.T) {
	// The policy rendering is stored in provenance and trace args; keep it
	// stable.
	p := DefaultRetryPolicy()
	want := "retry(max=5 base=5s mult=2 cap=120s jitter=0.2 timeout=0s break=0)"
	if got := p.String(); got != want {
		t.Fatalf("policy string = %q, want %q", got, want)
	}
	for _, name := range Names() {
		prof, _ := ByName(name)
		if fmt.Sprint(prof.Name) != name {
			t.Fatalf("profile %q name mismatch", name)
		}
	}
}

// A long-running open-system service leaves the injector armed for the whole
// horizon: the tracked-event list must stay bounded by the number of armed
// processes, not grow with every renewal ever scheduled.
func TestInjectorPendingBounded(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 8)
	in := NewInjector(cl, randx.New(11), Storm())
	in.Start()
	eng.RunUntil(3600 * 24 * 30) // a month of virtual storm chaos
	if in.stats.NodeFailures == 0 || in.stats.Reclaims == 0 {
		t.Fatalf("storm injected nothing: %+v", in.stats)
	}
	// Three renewal chains plus in-flight reclaim/repair followups: a couple
	// dozen live events at most, nowhere near the tens of thousands fired.
	if n := len(in.pending); n >= 128 {
		t.Fatalf("pending tracked events = %d, want bounded (compaction broken)", n)
	}
	in.Stop()
	if len(in.pending) != 0 {
		t.Fatalf("pending after Stop = %d, want 0", len(in.pending))
	}
}

// PlanTaskFailuresInto must draw exactly what PlanTaskFailures draws, in a
// dirty buffer of any capacity, and leave the source where it would.
func TestPlanTaskFailuresInto(t *testing.T) {
	p := Profile{TaskFailProb: 0.3, TaskFailPersist: 2}
	buf := []int{9, 9, 9, 9, 9, 9, 9, 9}
	for _, n := range []int{5, 40, 3, 0, 12} {
		ra, rb := randx.New(int64(n)+1), randx.New(int64(n)+1)
		want := p.PlanTaskFailures(n, ra)
		buf = p.PlanTaskFailuresInto(buf, n, rb)
		if fmt.Sprint(buf) != fmt.Sprint(want) {
			t.Fatalf("n=%d: into %v, want %v", n, buf, want)
		}
		if ra.Int63() != rb.Int63() {
			t.Fatalf("n=%d: the two forms left the source in different states", n)
		}
		for i := range buf {
			buf[i] = 9 // dirty it for the next round
		}
	}
}

// nodeDowns runs inj's storm on cl for six virtual hours and returns each
// node failure as "time:node", in order.
func nodeDowns(eng *sim.Engine, cl *cluster.Cluster, inj *Injector) []string {
	var log []string
	cl.OnNodeDown(func(n *cluster.Node) { log = append(log, fmt.Sprintf("%.6f:%d", float64(eng.Now()), n.ID)) })
	inj.Start()
	eng.RunUntil(6 * 3600)
	inj.Stop()
	eng.Run()
	return log
}

// A reset injector replays, on a reset engine and cluster, exactly the fault
// sequence and stats of a fresh injector with the same source, although its
// handlers were bound and fired in the previous run.
func TestInjectorResetMatchesFresh(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 6)
	fresh := NewInjector(cl, randx.New(11), Storm())
	want := nodeDowns(eng, cl, fresh)
	wantStats := fresh.Stats()
	if wantStats.NodeFailures == 0 || wantStats.Reclaims == 0 || wantStats.NodeRepairs == 0 {
		t.Fatalf("storm under-delivered: %+v", wantStats)
	}

	eng2 := sim.NewEngine()
	cl2 := testCluster(eng2, 6)
	inj := NewInjector(cl2, randx.New(99), Storm())
	nodeDowns(eng2, cl2, inj) // a different run first
	eng2.Reset()
	cl2.Reset()
	inj.Reset(randx.New(11))
	if inj.stopped || len(inj.pending) != 0 || inj.stats != (InjectStats{}) {
		t.Fatalf("Reset left state behind: stopped=%v pending=%d stats=%+v", inj.stopped, len(inj.pending), inj.stats)
	}
	got := nodeDowns(eng2, cl2, inj)
	if fmt.Sprint(got) != fmt.Sprint(want) || inj.Stats() != wantStats {
		t.Fatalf("reset injector diverged:\n got %v %+v\nwant %v %+v", got, inj.Stats(), want, wantStats)
	}
}

// victim draws the node UpNodes()[rng.Intn(len)] would be, with the same
// single draw, whichever nodes are down.
func TestVictimMatchesUpNodes(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 7)
	inj := NewInjector(cl, randx.New(5), Profile{})
	ref := randx.New(5)
	for _, id := range []int{2, 5, 0} {
		cl.FailNode(cl.Nodes()[id])
		for i := 0; i < 20; i++ {
			up := cl.UpNodes()
			if got, want := inj.victim(), up[ref.Intn(len(up))]; got != want {
				t.Fatalf("victim = node %d, want node %d", got.ID, want.ID)
			}
		}
	}
	for _, n := range cl.Nodes()[1:] {
		cl.FailNode(n)
	}
	if n := inj.victim(); n != nil {
		t.Fatalf("victim = node %d with one node up, want nil (last-node guard)", n.ID)
	}
}
