// Package steady measures allocations at a steady state, for the tests that
// lock a warm run's allocation ceiling.
//
// A warm run's pools and caches may keep growing for several runs before
// they settle: a pooled slice grows by doubling, or a pool hands its records
// to different owners from run to run. testing.AllocsPerRun makes one
// warm-up call and then averages, so a ceiling measured by it alone can sit
// on a value that is still falling, and pass or fail by where the growth
// steps land in one process.
package steady

import (
	"runtime"
	"testing"
)

// maxWarmup bounds the warm-up runs AllocsPerRun makes.
const maxWarmup = 20

// AllocsPerRun calls f until two consecutive calls allocate the same number
// of objects, or maxWarmup times, and then returns testing.AllocsPerRun(runs,
// f): the average allocations of runs further calls, after its own
// warm-up call.
func AllocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	last := ^uint64(0)
	for i := 0; i < maxWarmup; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		n := ms.Mallocs - before
		if n == last {
			break
		}
		last = n
	}
	return testing.AllocsPerRun(runs, f)
}
