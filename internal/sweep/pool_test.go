package sweep

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16, 0} {
		const n = 500
		counts := make([]int32, n)
		err := ForEachWorker(n, workers, nil, func(_, idx int) error {
			atomic.AddInt32(&counts[idx], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d processed %d times", workers, i, c)
			}
		}
	}
}

// When several indices fail, the error of the LOWEST index must win — the
// determinism contract callers (sweeps, the arrivals mode) rely on so a
// failing ensemble reports the same error at any worker count.
func TestForEachLowestErrorWins(t *testing.T) {
	for _, workers := range []int{1, 7} {
		err := ForEachWorker(100, workers, nil, func(_, idx int) error {
			if idx%10 == 3 {
				return fmt.Errorf("boom %d", idx)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 3" {
			t.Fatalf("workers=%d: err = %v, want boom 3", workers, err)
		}
	}
}

func TestForEachProgressAndEmpty(t *testing.T) {
	if err := ForEachWorker(0, 4, nil, func(int, int) error { return fmt.Errorf("never") }); err != nil {
		t.Fatal(err)
	}
	var calls, last int
	err := ForEachWorker(25, 4, func(done, total int) {
		calls++
		last = done
		if total != 25 {
			t.Errorf("total = %d", total)
		}
	}, func(int, int) error { return nil })
	if err != nil || calls != 25 || last != 25 {
		t.Fatalf("err=%v calls=%d last=%d", err, calls, last)
	}
}
