package dag

import (
	"testing"

	"hhcw/internal/randx"
)

func benchWorkflow() *Workflow {
	return RandomLayered(randx.New(1), 20, 50, GenOpts{})
}

// BenchmarkTopoOrder measures topological sorting of a ~700-task DAG. Each
// iteration drops the memoized structure first, so it times what the first
// read of a freshly built workflow pays: the successor-list build and the
// sort.
func BenchmarkTopoOrder(b *testing.B) {
	w := benchWorkflow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.changed()
		if _, err := w.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpwardRanks measures HEFT rank computation (run at every CWSI
// workflow registration).
func BenchmarkUpwardRanks(b *testing.B) {
	w := benchWorkflow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.UpwardRanks(nil, NominalDur)
	}
}

// BenchmarkCriticalPath measures critical-path extraction.
func BenchmarkCriticalPath(b *testing.B) {
	w := benchWorkflow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.CriticalPath(NominalDur)
	}
}

// The generation benchmarks build one workflow per iteration at the sizes of
// the end-to-end ensemble workloads (bench/workloads.go), whose sweeps
// regenerate the workflow for every sim; the layered size is the sweep
// command's.
var benchOpts = GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}

func benchGenerate(b *testing.B, gen func(*randx.Source) *Workflow) {
	b.ReportAllocs()
	var rng randx.Source
	for i := 0; i < b.N; i++ {
		_ = gen(rng.Reseed(int64(i)))
	}
}

func BenchmarkGenerateMontage(b *testing.B) {
	benchGenerate(b, func(r *randx.Source) *Workflow { return MontageLike(r, 16, benchOpts) })
}

func BenchmarkGenerateEpigenomics(b *testing.B) {
	benchGenerate(b, func(r *randx.Source) *Workflow { return EpigenomicsLike(r, 6, 5, benchOpts) })
}

func BenchmarkGenerateForkJoin(b *testing.B) {
	benchGenerate(b, func(r *randx.Source) *Workflow { return ForkJoin(r, 3, 12, benchOpts) })
}

func BenchmarkGenerateRNASeq(b *testing.B) {
	benchGenerate(b, func(r *randx.Source) *Workflow { return RNASeqLike(r, 12, benchOpts) })
}

func BenchmarkGenerateLayered(b *testing.B) {
	benchGenerate(b, func(r *randx.Source) *Workflow { return RandomLayered(r, 6, 10, benchOpts) })
}

// BenchmarkWorkflowExpanderReplay measures one warm run's readiness
// tracking: Reset onto a validated ensemble-sized workflow and a full drain,
// completing tasks in emission order.
func BenchmarkWorkflowExpanderReplay(b *testing.B) {
	b.ReportAllocs()
	w := MontageLike(randx.New(1), 16, benchOpts)
	var x WorkflowExpander
	done := make([]TaskID, 0, w.Len())
	for i := 0; i < b.N; i++ {
		if err := x.Reset(w); err != nil {
			b.Fatal(err)
		}
		done = completeInOrder(&x, done)
	}
}
