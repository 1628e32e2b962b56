package fault

import (
	"fmt"
	"strings"

	"hhcw/internal/cluster"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// Profile parameterizes the failure processes of one chaos run. The zero
// value (and None()) injects nothing. Profiles are plain data so drivers can
// print them and sweeps can vary them per cell.
type Profile struct {
	Name string

	// Exponential node-fault process: whole-node crashes with the given
	// cluster-wide mean time between failures (0 disables).
	NodeMTBFSec float64
	// NodeMTTRSec is the mean repair/replacement time; 0 leaves failed
	// nodes down for the rest of the run.
	NodeMTTRSec float64
	// MaxNodeFailures bounds the total node-fault count (0 = unbounded).
	MaxNodeFailures int

	// Spot-style reclaim process: cluster-wide reclaim rate per virtual
	// hour; each reclaim warns ReclaimWarnSec before taking the node down
	// (EC2-spot's two-minute notice).
	ReclaimPerHour float64
	ReclaimWarnSec float64

	// Transient task-failure process: each task is fault-marked with
	// probability TaskFailProb and then fails its first TaskFailPersist
	// attempts (application-level flakiness, distinct from node loss).
	TaskFailProb    float64
	TaskFailPersist int

	// I/O slowdown episodes: at IOEpisodePerHour, the shared filesystem
	// degrades for IOEpisodeDurSec, multiplying the runtime of tasks
	// placed during the episode by IOEpisodeFactor.
	IOEpisodePerHour float64
	IOEpisodeDurSec  float64
	IOEpisodeFactor  float64
}

// Enabled reports whether the profile injects any faults at all.
func (p Profile) Enabled() bool {
	return p.NodeMTBFSec > 0 || p.ReclaimPerHour > 0 || p.TaskFailProb > 0 || p.IOEpisodePerHour > 0
}

// None returns the empty profile: no injection, byte-identical behavior to a
// fault-free run.
func None() Profile { return Profile{Name: "none"} }

// MTBF returns the hardware-fault profile: exponential node crashes with
// repair, plus a low rate of transient task failures — the §4.3 Frontier
// scenario where a node failure killed running tasks mid-campaign.
func MTBF() Profile {
	return Profile{
		Name:            "mtbf",
		NodeMTBFSec:     900,
		NodeMTTRSec:     300,
		TaskFailProb:    0.05,
		TaskFailPersist: 1,
	}
}

// Spot returns the preemptible-capacity profile: reclaims with a two-minute
// warning and replacement capacity arriving after a relaunch delay, no
// application-level flakiness.
func Spot() Profile {
	return Profile{
		Name:           "spot",
		ReclaimPerHour: 6,
		ReclaimWarnSec: 120,
		NodeMTTRSec:    240,
	}
}

// Storm returns the everything-at-once profile: frequent node faults,
// reclaims, persistent task flakiness and I/O degradation episodes. It is
// the stress profile `make chaos` sweeps.
func Storm() Profile {
	return Profile{
		Name:             "storm",
		NodeMTBFSec:      600,
		NodeMTTRSec:      240,
		ReclaimPerHour:   3,
		ReclaimWarnSec:   120,
		TaskFailProb:     0.15,
		TaskFailPersist:  2,
		IOEpisodePerHour: 2,
		IOEpisodeDurSec:  300,
		IOEpisodeFactor:  2,
	}
}

// Names lists the selectable profile names in flag-help order.
func Names() []string { return []string{"none", "mtbf", "spot", "storm"} }

// ByName resolves a -faults flag value to its profile.
func ByName(name string) (Profile, error) {
	switch name {
	case "", "none":
		return None(), nil
	case "mtbf":
		return MTBF(), nil
	case "spot":
		return Spot(), nil
	case "storm":
		return Storm(), nil
	}
	return Profile{}, fmt.Errorf("fault: unknown profile %q (want %s)", name, strings.Join(Names(), "|"))
}

// PlanTaskFailures draws the transient task-failure plan for n tasks in index
// order: element i is how many leading attempts of task i fail (0 = healthy).
// Callers map indices to tasks in their own deterministic order.
func (p Profile) PlanTaskFailures(n int, rng *randx.Source) []int {
	if n <= 0 {
		return nil
	}
	plan := make([]int, n)
	if p.TaskFailProb <= 0 || rng == nil {
		return plan
	}
	persist := p.TaskFailPersist
	if persist <= 0 {
		persist = 1
	}
	for i := range plan {
		if rng.Bernoulli(p.TaskFailProb) {
			plan[i] = persist
		}
	}
	return plan
}

// InjectStats counts what the injector actually did in one run.
type InjectStats struct {
	NodeFailures int
	NodeRepairs  int
	Reclaims     int
	IOEpisodes   int
}

// Injector drives a Profile's node-level failure processes against a cluster
// on its sim engine. All randomness comes from the single Source handed to
// NewInjector, so a chaos run is a pure function of (workflow seed, profile).
//
// The injector never takes down the last healthy node — the recovery layer
// needs somewhere to retry to (graceful degradation, not total blackout) —
// and Stop cancels every outstanding event so the engine can drain once the
// driving workload completes.
type Injector struct {
	eng  *sim.Engine
	cl   *cluster.Cluster
	rng  *randx.Source
	prof Profile

	stopped  bool
	pending  []*sim.Event
	slowTill sim.Time
	stats    InjectStats
}

// NewInjector binds a profile to a cluster. Start arms the processes.
func NewInjector(cl *cluster.Cluster, rng *randx.Source, prof Profile) *Injector {
	return &Injector{eng: cl.Engine(), cl: cl, rng: rng, prof: prof}
}

// Stats returns what has been injected so far.
func (in *Injector) Stats() InjectStats { return in.stats }

// Profile returns the profile the injector runs.
func (in *Injector) Profile() Profile { return in.prof }

// RuntimeScale returns the current I/O-episode runtime multiplier (1 outside
// episodes). Substrates consult it when computing a task's execution time.
func (in *Injector) RuntimeScale() float64 {
	if in.prof.IOEpisodeFactor > 1 && in.eng.Now() < in.slowTill {
		return in.prof.IOEpisodeFactor
	}
	return 1
}

// Start arms the profile's processes. Each process is a self-rescheduling
// event chain; chains stop rescheduling (and outstanding events are
// cancelled) after Stop.
func (in *Injector) Start() {
	if in.prof.NodeMTBFSec > 0 {
		in.armRenewal(in.prof.NodeMTBFSec, func() { in.crashOne() })
	}
	if in.prof.ReclaimPerHour > 0 {
		in.armRenewal(3600/in.prof.ReclaimPerHour, func() { in.reclaimOne() })
	}
	if in.prof.IOEpisodePerHour > 0 && in.prof.IOEpisodeDurSec > 0 {
		in.armRenewal(3600/in.prof.IOEpisodePerHour, func() { in.ioEpisode() })
	}
}

// Stop halts all processes and cancels outstanding events so a drained
// workload leaves a drainable engine. Call it from the workload's completion
// hook.
func (in *Injector) Stop() {
	in.stopped = true
	for _, ev := range in.pending {
		ev.Cancel()
	}
	in.pending = in.pending[:0]
}

// armRenewal schedules fire after an Exp(mean) delay and re-arms after each
// firing — an exponential renewal process.
func (in *Injector) armRenewal(meanSec float64, fire func()) {
	if in.stopped {
		return
	}
	ev := in.eng.After(sim.Time(in.rng.Exp(meanSec)), func() {
		if in.stopped {
			return
		}
		fire()
		in.armRenewal(meanSec, fire)
	})
	in.track(ev)
}

// track remembers an outstanding event for Stop-time cancellation,
// compacting already-fired entries once the list grows: the renewal chains
// of a long-running open-system service would otherwise retain every event
// ever scheduled, O(virtual time) instead of O(armed processes). An event
// strictly in the past has fired (the engine never holds events before now),
// so cancelling it would be a no-op; dropping it is safe.
func (in *Injector) track(ev *sim.Event) {
	in.pending = append(in.pending, ev)
	if len(in.pending) < 64 {
		return
	}
	now := in.eng.Now()
	live := in.pending[:0]
	for _, e := range in.pending {
		if e.Time() >= now && !e.Cancelled() {
			live = append(live, e)
		}
	}
	// Keep the backing array only if compaction actually helped; otherwise
	// grow as usual and retry at the next threshold crossing.
	in.pending = live
}

// victim picks a node to take down, or nil when doing so would leave the
// cluster without healthy capacity (the last-node guard).
func (in *Injector) victim() *cluster.Node {
	up := in.cl.UpNodes()
	if len(up) < 2 {
		return nil
	}
	return up[in.rng.Intn(len(up))]
}

func (in *Injector) crashOne() {
	if in.prof.MaxNodeFailures > 0 && in.stats.NodeFailures >= in.prof.MaxNodeFailures {
		return
	}
	n := in.victim()
	if n == nil {
		return
	}
	in.stats.NodeFailures++
	in.cl.FailNode(n)
	in.scheduleRepair(n)
}

func (in *Injector) reclaimOne() {
	n := in.victim()
	if n == nil {
		return
	}
	in.stats.Reclaims++
	ev := in.eng.After(sim.Time(in.prof.ReclaimWarnSec), func() {
		if in.stopped {
			return
		}
		in.cl.FailNode(n)
		in.scheduleRepair(n)
	})
	in.track(ev)
}

func (in *Injector) scheduleRepair(n *cluster.Node) {
	if in.prof.NodeMTTRSec <= 0 {
		return
	}
	ev := in.eng.After(sim.Time(in.rng.Exp(in.prof.NodeMTTRSec)), func() {
		if in.stopped {
			return
		}
		in.stats.NodeRepairs++
		in.cl.RepairNode(n)
	})
	in.track(ev)
}

func (in *Injector) ioEpisode() {
	in.stats.IOEpisodes++
	until := in.eng.Now() + sim.Time(in.prof.IOEpisodeDurSec)
	if until > in.slowTill {
		in.slowTill = until
	}
}
