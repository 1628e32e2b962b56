package fault

import (
	"fmt"
	"slices"
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
	return p.PlanTaskFailuresInto(nil, n, rng)
}

// PlanTaskFailuresInto is PlanTaskFailures reusing plan's storage: it returns
// plan resized to n (grown if needed) and overwritten with the same draws.
func (p Profile) PlanTaskFailuresInto(plan []int, n int, rng *randx.Source) []int {
	if n <= 0 {
		return plan[:0]
	}
	plan = slices.Grow(plan[:0], n)[:n]
	clear(plan)
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
// NewInjector (or Reset), so a chaos run is a pure function of (workflow
// seed, profile).
//
// The injector never takes down the last healthy node — the recovery layer
// needs somewhere to retry to (graceful degradation, not total blackout) —
// and Stop cancels every outstanding event so the engine can drain once the
// driving workload completes.
//
// Its timers fire through handlers bound once: one per renewal process at
// construction, one repair and one reclaim handler per node the first time
// that node needs it. Arming an event allocates no closure.
type Injector struct {
	eng  *sim.Engine
	cl   *cluster.Cluster
	rng  *randx.Source
	prof Profile

	stopped  bool
	pending  []sim.Event
	slowTill sim.Time
	stats    InjectStats

	// procs are the renewal processes: node crashes, reclaims and I/O
	// episodes, in that order.
	procs [3]renewal
	// nodeTimers holds each node's repair and reclaim handlers, indexed by
	// node ID and bound on first use.
	nodeTimers []nodeTimers
}

// renewal is one exponential renewal process: its mean inter-arrival time
// and the handler that fires its action and re-arms it.
type renewal struct {
	mean float64
	tick func()
}

// nodeTimers are one node's fault handlers: the repair that brings it back
// and the end of a reclaim's warning, which takes it down.
type nodeTimers struct {
	repair, reclaim func()
}

// NewInjector binds a profile to a cluster. Start arms the processes.
func NewInjector(cl *cluster.Cluster, rng *randx.Source, prof Profile) *Injector {
	in := &Injector{eng: cl.Engine(), cl: cl, rng: rng, prof: prof}
	in.procs[0].mean = prof.NodeMTBFSec
	if prof.ReclaimPerHour > 0 {
		in.procs[1].mean = 3600 / prof.ReclaimPerHour
	}
	if prof.IOEpisodePerHour > 0 {
		in.procs[2].mean = 3600 / prof.IOEpisodePerHour
	}
	for i, fire := range [...]func(){in.crashOne, in.reclaimOne, in.ioEpisode} {
		r := &in.procs[i]
		r.tick = func() {
			if in.stopped {
				return
			}
			fire()
			in.armRenewal(r)
		}
	}
	return in
}

// Reset readies the injector for another run on the same cluster and
// profile, drawing from rng: it is then indistinguishable from
// NewInjector(cl, rng, prof), except that the outstanding-event list keeps
// its capacity and the handlers stay bound. The engine must have been reset
// too: events of the previous run are dropped, not cancelled.
func (in *Injector) Reset(rng *randx.Source) {
	in.rng = rng
	in.stopped, in.slowTill, in.stats = false, 0, InjectStats{}
	clear(in.pending)
	in.pending = in.pending[:0]
}

// Stats returns what has been injected so far.
func (in *Injector) Stats() InjectStats { return in.stats }

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
		in.armRenewal(&in.procs[0])
	}
	if in.prof.ReclaimPerHour > 0 {
		in.armRenewal(&in.procs[1])
	}
	if in.prof.IOEpisodePerHour > 0 && in.prof.IOEpisodeDurSec > 0 {
		in.armRenewal(&in.procs[2])
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

// armRenewal schedules r's next firing after an Exp(mean) delay; each firing
// re-arms it — an exponential renewal process.
func (in *Injector) armRenewal(r *renewal) {
	if in.stopped {
		return
	}
	in.track(in.eng.After(sim.Time(in.rng.Exp(r.mean)), r.tick))
}

// track remembers an outstanding event for Stop-time cancellation,
// compacting entries no longer pending once the list grows: the renewal
// chains of a long-running open-system service would otherwise retain every
// event ever scheduled, O(virtual time) instead of O(armed processes).
// Cancelling an event that has fired or been cancelled is a no-op, so
// dropping it is safe.
func (in *Injector) track(ev sim.Event) {
	in.pending = append(in.pending, ev)
	if len(in.pending) < 64 {
		return
	}
	live := in.pending[:0]
	for _, e := range in.pending {
		if e.Pending() {
			live = append(live, e)
		}
	}
	// Keep the backing array only if compaction actually helped; otherwise
	// grow as usual and retry at the next threshold crossing.
	in.pending = live
}

// victim picks a node to take down, or nil when doing so would leave the
// cluster without healthy capacity (the last-node guard). It draws the k-th
// up node in ID order, the node UpNodes()[k] would be, without building the
// list.
func (in *Injector) victim() *cluster.Node {
	up := in.cl.UpCount()
	if up < 2 {
		return nil
	}
	k := in.rng.Intn(up)
	for _, n := range in.cl.Nodes() {
		if n.Down() {
			continue
		}
		if k == 0 {
			return n
		}
		k--
	}
	panic("fault: cluster up count exceeds its up nodes")
}

// timers returns n's handlers, binding them on first use.
func (in *Injector) timers(n *cluster.Node) *nodeTimers {
	if in.nodeTimers == nil {
		in.nodeTimers = make([]nodeTimers, in.cl.NodeCount())
	}
	t := &in.nodeTimers[n.ID]
	if t.repair == nil {
		t.repair = func() {
			if in.stopped {
				return
			}
			in.stats.NodeRepairs++
			in.cl.RepairNode(n)
		}
		t.reclaim = func() {
			if in.stopped {
				return
			}
			in.cl.FailNode(n)
			in.scheduleRepair(n)
		}
	}
	return t
}

func (in *Injector) crashOne() {
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
	in.track(in.eng.After(sim.Time(in.prof.ReclaimWarnSec), in.timers(n).reclaim))
}

func (in *Injector) scheduleRepair(n *cluster.Node) {
	if in.prof.NodeMTTRSec <= 0 {
		return
	}
	in.track(in.eng.After(sim.Time(in.rng.Exp(in.prof.NodeMTTRSec)), in.timers(n).repair))
}

func (in *Injector) ioEpisode() {
	in.stats.IOEpisodes++
	until := in.eng.Now() + sim.Time(in.prof.IOEpisodeDurSec)
	if until > in.slowTill {
		in.slowTill = until
	}
}
