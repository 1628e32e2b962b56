package dag

import (
	"fmt"
	"testing"

	"hhcw/internal/randx"
)

// wantTask is one expected (ID, Name) pair of a generated workflow.
type wantTask struct{ id, name string }

// checkGenerated compares w's name and every task's ID and Name, in
// insertion order, with want.
func checkGenerated(t *testing.T, w *Workflow, name string, want []wantTask) {
	t.Helper()
	if w.Name != name {
		t.Fatalf("workflow name %q, want %q", w.Name, name)
	}
	if w.Len() != len(want) {
		t.Fatalf("%s: %d tasks, want %d", name, w.Len(), len(want))
	}
	for i, task := range w.Tasks() {
		if string(task.ID) != want[i].id || task.Name != want[i].name {
			t.Fatalf("%s task %d: (%q, %q), want (%q, %q)", name, i, task.ID, task.Name, want[i].id, want[i].name)
		}
	}
}

// TestGeneratorIDsMatchSprintf pins every generated ID and name to the fmt
// format strings the generators historically used, at sizes whose counters
// outgrow each zero-pad width.
func TestGeneratorIDsMatchSprintf(t *testing.T) {
	rng := randx.New(1)
	opts := GenOpts{}

	t.Run("chain", func(t *testing.T) {
		n := 1001
		var want []wantTask
		for i := 0; i < n; i++ {
			want = append(want, wantTask{fmt.Sprintf("t%03d", i), fmt.Sprintf("step%d", i)})
		}
		checkGenerated(t, Chain(rng, n, opts), fmt.Sprintf("chain-%d", n), want)
	})

	t.Run("forkjoin", func(t *testing.T) {
		stages, width := 101, 1001
		var want []wantTask
		for s := 0; s < stages; s++ {
			for i := 0; i < width; i++ {
				want = append(want, wantTask{fmt.Sprintf("s%02d-w%03d", s, i), fmt.Sprintf("fan%d", s)})
			}
			want = append(want, wantTask{fmt.Sprintf("s%02d-merge", s), fmt.Sprintf("merge%d", s)})
		}
		checkGenerated(t, ForkJoin(rng, stages, width, opts), fmt.Sprintf("forkjoin-%dx%d", stages, width), want)
	})

	t.Run("montage", func(t *testing.T) {
		width := 1001
		var want []wantTask
		for i := 0; i < width; i++ {
			want = append(want, wantTask{fmt.Sprintf("mProject-%03d", i), "mProject"})
		}
		for i := 0; i+1 < width; i++ {
			want = append(want, wantTask{fmt.Sprintf("mDiffFit-%03d", i), "mDiffFit"})
		}
		want = append(want, wantTask{"mConcatFit", "mConcatFit"}, wantTask{"mBgModel", "mBgModel"})
		for i := 0; i < width; i++ {
			want = append(want, wantTask{fmt.Sprintf("mBackground-%03d", i), "mBackground"})
		}
		want = append(want, wantTask{"mImgtbl", "mImgtbl"}, wantTask{"mAdd", "mAdd"}, wantTask{"mViewer", "mViewer"})
		checkGenerated(t, MontageLike(rng, width, opts), fmt.Sprintf("montage-%d", width), want)
	})

	t.Run("epigenomics", func(t *testing.T) {
		lanes, depth := 101, 101
		var want []wantTask
		for l := 0; l < lanes; l++ {
			for d := 0; d < depth; d++ {
				want = append(want, wantTask{fmt.Sprintf("lane%02d-s%02d", l, d), fmt.Sprintf("stage%d", d)})
			}
		}
		want = append(want, wantTask{"merge", "mergeSort"}, wantTask{"map", "map"}, wantTask{"filter", "pileup"})
		checkGenerated(t, EpigenomicsLike(rng, lanes, depth, opts), fmt.Sprintf("epigenomics-%dx%d", lanes, depth), want)
	})

	t.Run("rnaseq", func(t *testing.T) {
		samples := 10001
		var want []wantTask
		for s := 0; s < samples; s++ {
			for _, st := range []string{"prefetch", "fasterq", "salmon", "deseq2"} {
				want = append(want, wantTask{fmt.Sprintf("%s-%04d", st, s), st})
			}
		}
		checkGenerated(t, RNASeqLike(rng, samples, opts), fmt.Sprintf("rnaseq-%d", samples), want)
	})

	t.Run("layered", func(t *testing.T) {
		// Layer sizes are drawn from the RNG, so the expected sequence
		// follows the generated one: each ID is the next in its layer or
		// the first of the next layer, and the layers run out exactly.
		levels, width := 101, 1001
		w := RandomLayered(rng, levels, width, opts)
		var want []wantTask
		l, i := 0, 0
		for _, task := range w.Tasks() {
			if string(task.ID) != fmt.Sprintf("l%02d-t%03d", l, i) {
				l, i = l+1, 0
			}
			want = append(want, wantTask{fmt.Sprintf("l%02d-t%03d", l, i), fmt.Sprintf("proc%d", l)})
			i++
		}
		if l != levels-1 {
			t.Fatalf("IDs span %d layers, want %d", l+1, levels)
		}
		checkGenerated(t, w, fmt.Sprintf("layered-%dx%d", levels, width), want)
	})
}
