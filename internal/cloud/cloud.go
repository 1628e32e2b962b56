// Package cloud simulates the AWS services the Transcriptomics Atlas
// deployment uses (§5.1, Fig 7): EC2-like instances with boot delay launched
// from an image, an auto-scaling group, an SQS-like work queue, an S3-like
// object store (internal/storage), and a CloudWatch-agent-like per-process
// metric sink.
package cloud

import (
	"fmt"

	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// InstanceType describes an EC2 instance family.
type InstanceType struct {
	Name     string
	VCPUs    int
	MemBytes float64
	// BootDelaySec models AMI launch + init time.
	BootDelaySec float64
	// SpeedFactor scales compute-bound step durations (1 = reference).
	SpeedFactor float64
	// PricePerHour lets experiments report cost alongside time.
	PricePerHour float64
}

// T3Medium is the small general-purpose instance the Salmon pipeline fits
// ("2 cores and 8GB of RAM").
var T3Medium = InstanceType{
	Name: "t3.medium", VCPUs: 2, MemBytes: 8e9,
	BootDelaySec: 60, SpeedFactor: 1.0, PricePerHour: 0.0416,
}

// C6aLarge is the compute-optimized alternative §5.2 suggests ("c6a.large
// type which has 2vCPU and 4GiB RAM").
var C6aLarge = InstanceType{
	Name: "c6a.large", VCPUs: 2, MemBytes: 4e9,
	BootDelaySec: 60, SpeedFactor: 1.15, PricePerHour: 0.0765,
}

// InstanceState is the EC2 lifecycle state.
type InstanceState int

// Instance lifecycle states.
const (
	Launching InstanceState = iota
	Running
	Terminated
)

// Instance is one virtual machine.
type Instance struct {
	ID    int
	Type  InstanceType
	state InstanceState

	launchedAt sim.Time
	stoppedAt  sim.Time
}

// UptimeSec returns billable seconds (launch to termination, or to now).
func (i *Instance) UptimeSec(now sim.Time) float64 {
	end := i.stoppedAt
	if i.state != Terminated {
		end = now
	}
	return float64(end - i.launchedAt)
}

// Queue is an SQS-like FIFO work queue carrying string messages (SRR
// accessions in the Atlas deployment).
type Queue struct {
	msgs     []string
	inflight int
	consumed int
}

// NewQueue returns a queue preloaded with msgs.
func NewQueue(msgs ...string) *Queue {
	return &Queue{msgs: append([]string(nil), msgs...)}
}

// Send enqueues a message.
func (q *Queue) Send(msg string) { q.msgs = append(q.msgs, msg) }

// Receive pops the next message; ok=false when empty. The message becomes
// in-flight until Delete or Return.
func (q *Queue) Receive() (string, bool) {
	if len(q.msgs) == 0 {
		return "", false
	}
	m := q.msgs[0]
	q.msgs = q.msgs[1:]
	q.inflight++
	return m, true
}

// Delete acknowledges an in-flight message.
func (q *Queue) Delete() {
	if q.inflight > 0 {
		q.inflight--
		q.consumed++
	}
}

// Len returns queued (not in-flight) messages.
func (q *Queue) Len() int { return len(q.msgs) }

// Consumed returns acknowledged messages.
func (q *Queue) Consumed() int { return q.consumed }

// Env bundles the cloud account: engine, object store, queue, instances.
type Env struct {
	Eng    *sim.Engine
	S3     *storage.Store
	Queue  *Queue
	nextID int

	instances []*Instance
}

// NewEnv creates a cloud environment on eng. The S3 store has effectively
// unbounded bandwidth per object (network costs live in step durations).
func NewEnv(eng *sim.Engine) *Env {
	return &Env{
		Eng:   eng,
		S3:    storage.NewStore("s3", 0, 0, 0),
		Queue: NewQueue(),
	}
}

// Launch starts an instance; onReady fires after the boot delay with the
// running instance.
func (e *Env) Launch(t InstanceType, onReady func(*Instance)) *Instance {
	e.nextID++
	inst := &Instance{ID: e.nextID, Type: t, state: Launching, launchedAt: e.Eng.Now()}
	e.instances = append(e.instances, inst)
	e.Eng.After(sim.Time(t.BootDelaySec), func() {
		if inst.state != Launching {
			return
		}
		inst.state = Running
		if onReady != nil {
			onReady(inst)
		}
	})
	return inst
}

// Terminate stops an instance.
func (e *Env) Terminate(inst *Instance) {
	if inst.state == Terminated {
		return
	}
	inst.state = Terminated
	inst.stoppedAt = e.Eng.Now()
}

// Instances returns all launched instances.
func (e *Env) Instances() []*Instance { return e.instances }

// TotalCost returns the accumulated instance cost in dollars at now.
func (e *Env) TotalCost(now sim.Time) float64 {
	c := 0.0
	for _, i := range e.instances {
		c += i.UptimeSec(now) / 3600 * i.Type.PricePerHour
	}
	return c
}

// ASGConfig shapes an auto-scaling group.
type ASGConfig struct {
	Type     InstanceType
	Min, Max int
	// Worker is the per-instance work loop: it is invoked when an instance
	// becomes ready and must call done() when the instance has no more
	// work (the ASG then terminates it).
	Worker func(inst *Instance, done func())
}

// ASG is an auto-scaling group that tracks queue depth: it scales out while
// the queue has more messages than running+launching instances (up to Max)
// and lets workers terminate when the queue drains.
type ASG struct {
	env  *Env
	cfg  ASGConfig
	live int
}

// NewASG creates the group and immediately scales to the needed size.
func NewASG(env *Env, cfg ASGConfig) (*ASG, error) {
	if cfg.Worker == nil {
		return nil, fmt.Errorf("cloud: ASG without Worker")
	}
	if cfg.Max <= 0 {
		return nil, fmt.Errorf("cloud: ASG Max must be positive")
	}
	g := &ASG{env: env, cfg: cfg}
	g.Scale()
	return g, nil
}

// Scale adjusts capacity toward queue depth. Call after enqueuing work.
func (g *ASG) Scale() {
	want := g.env.Queue.Len()
	if want > g.cfg.Max {
		want = g.cfg.Max
	}
	if want < g.cfg.Min {
		want = g.cfg.Min
	}
	for g.live < want {
		g.live++
		g.env.Launch(g.cfg.Type, func(inst *Instance) {
			g.cfg.Worker(inst, func() {
				g.env.Terminate(inst)
				g.live--
			})
		})
	}
}
