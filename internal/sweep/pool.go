package sweep

import (
	"runtime"
	"sync"
)

// PoolWorkers resolves the worker count the pool will actually use for a
// given job total: workers <= 0 means NumCPU, and the pool never spawns more
// goroutines than there are jobs — a 2-job sweep on a 64-core box gets 2
// workers, not 64 idle goroutines (and, for warm-session callers, not 64
// eagerly built substrates). Exported so callers that keep per-worker state
// can size their slots to match ForEachWorker's worker indices.
func PoolWorkers(total, workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEachWorker runs fn(worker, idx) for every index in [0, total) on a pool
// of workers — the ensemble-execution primitive Run is built on, exported so
// other multi-seed drivers (the service-mode arrival sweeps) inherit the same
// determinism contract: each index is processed by exactly one worker, any
// per-index state must be written into caller-owned slots keyed by idx, and
// when several indices fail the error of the LOWEST index is returned, so
// failures are as deterministic as successes regardless of worker count or
// interleaving. workers <= 0 means NumCPU; see PoolWorkers for the clamp.
// progress, when non-nil, is called under a lock with the completed count
// after each index.
//
// worker is a stable index in [0, PoolWorkers(total, workers)). Each worker
// is one goroutine for the lifetime of the call, so state keyed by the
// worker index — a warm-run session, a scratch arena — is touched by exactly
// one goroutine at a time and needs no locking. Job assignment to workers is
// racy by design; only per-index results (and the lowest-index error) are
// deterministic.
func ForEachWorker(total, workers int, progress func(done, total int), fn func(worker, idx int) error) error {
	if total <= 0 {
		return nil
	}
	workers = PoolWorkers(total, workers)
	errs := make([]error, total) // each index written by exactly one worker
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	// The full index range is buffered up front so workers never block on
	// the producer: job dispatch costs one channel receive, not a rendezvous
	// per job.
	ch := make(chan int, total)
	for idx := 0; idx < total; idx++ {
		ch <- idx
	}
	close(ch)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for idx := range ch {
				errs[idx] = fn(worker, idx)
				if progress != nil {
					mu.Lock()
					done++
					progress(done, total)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
