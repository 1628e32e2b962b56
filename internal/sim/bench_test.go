package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineThroughput measures raw event dispatch rate — the
// simulator's core cost, which bounds how large a virtual system we can
// replay per wall-second.
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1, func() {})
		e.Step()
	}
}

// BenchmarkEngineDeepQueue measures scheduling cost with a large pending
// queue (heap depth ~16k).
func BenchmarkEngineDeepQueue(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 16384; i++ {
		e.At(Time(1e9+float64(i)), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.At(Time(float64(i)+1), func() {})
		_ = ev
		e.Step()
	}
}

// BenchmarkEngineCancel measures event cancellation (used heavily by the
// task managers on node failures).
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.At(Time(i)+1, func() {})
		ev.Cancel()
		e.Step()
	}
}

// BenchmarkEngineSameDelayCohort measures a wave of 1024 timers scheduled at
// one delay and popped as one cohort by Run — a dispatch round's task ends.
// ns/op is per event.
func BenchmarkEngineSameDelayCohort(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := min(1024, b.N-done)
		for i := 0; i < k; i++ {
			e.After(1, fn)
		}
		e.Run()
		done += k
	}
}

// BenchmarkEngineSteadyPipeline keeps 1024 events pending and, per op, fires
// one and schedules one at a fixed delay: the pattern a queue that copied its
// live entries on every push would pay for.
func BenchmarkEngineSteadyPipeline(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.At(Time(i+1), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.After(1024, fn)
	}
}

// BenchmarkEngineDeepHeap is EngineDeepQueue with the 16k far-future events
// scheduled in shuffled order, so they fill the heap rather than the sorted
// run; each op then pushes and pops one near event through the deep heap.
func BenchmarkEngineDeepHeap(b *testing.B) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(16384) {
		e.At(Time(1e9+float64(i)), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(Time(float64(i)+1), func() {})
		e.Step()
	}
}

// BenchmarkEngineKickCohort models a dispatch loop: 64 tasks run, two end at
// each timestamp, and each end kicks the manager. The first kick of a
// timestamp schedules one zero-delay pass, as rm.TaskManager.kick
// coalesces them, and the pass restarts the ended tasks 32 time units on.
// A third of the events are passes. ns/op is per event.
func BenchmarkEngineKickCohort(b *testing.B) {
	e := NewEngine()
	ended, kicked := 0, false
	var end func()
	pass := func() {
		kicked = false
		for ; ended > 0; ended-- {
			e.After(32, end)
		}
	}
	end = func() {
		ended++
		if !kicked {
			kicked = true
			e.After(0, pass)
		}
	}
	for i := 0; i < 64; i++ {
		e.At(Time(1+i/2), end)
	}
	b.ResetTimer()
	for start := e.Fired(); e.Fired()-start < uint64(b.N); {
		e.RunUntil(e.Now() + 1)
	}
}
