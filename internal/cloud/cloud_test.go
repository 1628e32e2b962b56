package cloud

import (
	"fmt"
	"testing"

	"hhcw/internal/sim"
)

func TestQueueSemantics(t *testing.T) {
	q := NewQueue("a", "b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	m, ok := q.Receive()
	if !ok || m != "a" {
		t.Fatalf("Receive = %q %v", m, ok)
	}
	if q.inflight != 1 || q.Len() != 1 {
		t.Fatalf("inflight=%d len=%d", q.inflight, q.Len())
	}
	q.Delete()
	if q.Consumed() != 1 || q.inflight != 0 {
		t.Fatalf("consumed=%d inflight=%d", q.Consumed(), q.inflight)
	}
	q.Receive()
	q.Delete()
	if _, ok := q.Receive(); ok {
		t.Fatal("Receive on empty queue succeeded")
	}
}

func TestInstanceLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	env := NewEnv(eng)
	var readyAt sim.Time
	inst := env.Launch(T3Medium, func(i *Instance) { readyAt = eng.Now() })
	if inst.state != Launching {
		t.Fatal("instance should be launching")
	}
	eng.Run()
	if readyAt != 60 {
		t.Fatalf("ready at %v, want 60 (boot delay)", readyAt)
	}
	if inst.state != Running {
		t.Fatal("instance should be running")
	}
	eng.At(eng.Now(), func() {})
	env.Terminate(inst)
	if inst.state != Terminated {
		t.Fatal("instance should be terminated")
	}
	if got := inst.UptimeSec(eng.Now()); got != 60 {
		t.Fatalf("uptime = %v, want 60", got)
	}
	env.Terminate(inst) // idempotent
}

func TestTerminateDuringLaunch(t *testing.T) {
	eng := sim.NewEngine()
	env := NewEnv(eng)
	called := false
	inst := env.Launch(T3Medium, func(*Instance) { called = true })
	env.Terminate(inst)
	eng.Run()
	if called {
		t.Fatal("onReady fired for terminated instance")
	}
	if inst.state != Terminated {
		t.Fatalf("instance state %v after terminate during launch", inst.state)
	}
}

func TestTotalCost(t *testing.T) {
	eng := sim.NewEngine()
	env := NewEnv(eng)
	inst := env.Launch(T3Medium, nil)
	eng.At(3600, func() { env.Terminate(inst) })
	eng.Run()
	want := T3Medium.PricePerHour
	if got := env.TotalCost(eng.Now()); got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

func TestASGProcessesQueue(t *testing.T) {
	eng := sim.NewEngine()
	env := NewEnv(eng)
	for i := 0; i < 10; i++ {
		env.Queue.Send(fmt.Sprintf("srr%02d", i))
	}
	processed := 0
	_, err := NewASG(env, ASGConfig{
		Type: T3Medium,
		Max:  3,
		Worker: func(inst *Instance, done func()) {
			var loop func()
			loop = func() {
				msg, ok := env.Queue.Receive()
				if !ok {
					done()
					return
				}
				eng.After(100, func() {
					_ = msg
					processed++
					env.Queue.Delete()
					loop()
				})
			}
			loop()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if processed != 10 {
		t.Fatalf("processed = %d, want 10", processed)
	}
	if env.Queue.Consumed() != 10 {
		t.Fatalf("consumed = %d", env.Queue.Consumed())
	}
	// Capped at 3 instances.
	if len(env.Instances()) != 3 {
		t.Fatalf("instances = %d, want 3", len(env.Instances()))
	}
	for _, inst := range env.Instances() {
		if inst.state != Terminated {
			t.Fatal("instance not terminated after drain")
		}
	}
	// 10 msgs / 3 instances → ceil = 4 rounds × 100 s + 60 s boot.
	if eng.Now() != 460 {
		t.Fatalf("makespan = %v, want 460", eng.Now())
	}
}

func TestASGValidation(t *testing.T) {
	eng := sim.NewEngine()
	env := NewEnv(eng)
	if _, err := NewASG(env, ASGConfig{Type: T3Medium, Max: 1}); err == nil {
		t.Fatal("ASG without worker accepted")
	}
	if _, err := NewASG(env, ASGConfig{Type: T3Medium, Max: 0, Worker: func(*Instance, func()) {}}); err == nil {
		t.Fatal("ASG with Max=0 accepted")
	}
}

func TestASGScaleIsBounded(t *testing.T) {
	eng := sim.NewEngine()
	env := NewEnv(eng)
	for i := 0; i < 100; i++ {
		env.Queue.Send("m")
	}
	g, err := NewASG(env, ASGConfig{
		Type: T3Medium, Max: 5,
		Worker: func(inst *Instance, done func()) {
			for {
				if _, ok := env.Queue.Receive(); !ok {
					break
				}
				env.Queue.Delete()
			}
			done()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.live != 5 {
		t.Fatalf("live = %d, want 5", g.live)
	}
	eng.Run()
	if g.live != 0 {
		t.Fatalf("live after drain = %d", g.live)
	}
}
