package dag

import (
	"math"
	"strconv"
	"strings"

	"hhcw/internal/randx"
)

// Generators for the workflow shapes the CWSI evaluation sweeps over. Each
// produces tasks whose nominal durations and data sizes are drawn from
// lognormal distributions (the canonical model for scientific task runtimes),
// so workflow-aware strategies have real variance to exploit.

// GenOpts tunes the random generators.
type GenOpts struct {
	MeanDur  float64 // mean nominal duration per task (seconds)
	CVDur    float64 // coefficient of variation of durations
	MeanData float64 // mean output size (bytes)
	Cores    int     // cores per task (default 1)
	MaxCores int     // if >0, cores drawn uniformly in [Cores, MaxCores]
	MeanMem  float64 // mean memory request (bytes)

	// Lognormal parameters fixed per GenOpts, derived once by defaults():
	// duration (MeanDur, CVDur), memory (MeanMem, 0.3) and data (cv 0.2,
	// whose mean each task scales).
	dur, mem, data lognormal
}

func (o *GenOpts) defaults() {
	if o.MeanDur == 0 {
		o.MeanDur = 120
	}
	if o.CVDur == 0 {
		o.CVDur = 0.5
	}
	if o.MeanData == 0 {
		o.MeanData = 1e9
	}
	if o.Cores == 0 {
		o.Cores = 1
	}
	if o.MeanMem == 0 {
		o.MeanMem = 4e9
	}
	o.dur = newLognormal(o.MeanDur, o.CVDur)
	o.mem = newLognormal(o.MeanMem, 0.3)
	o.data = newLognormal(0, 0.2)
}

// lognormal is randx.LogNormalMeanCV with the parameters it derives from
// (mean, cv) computed once instead of per draw. They are the same float
// operations on the same inputs, and draw keeps LogNormalMeanCV's guards, so
// every draw is bit-identical and consumes the same random numbers.
type lognormal struct {
	mean, cv float64
	halfVar  float64 // σ²/2
	sigma    float64
	mu       float64 // log(mean) − σ²/2, set while mean > 0
}

func newLognormal(mean, cv float64) lognormal {
	sigma2 := math.Log(1 + cv*cv)
	return lognormal{cv: cv, halfVar: sigma2 / 2, sigma: math.Sqrt(sigma2)}.withMean(mean)
}

// withMean returns p retargeted to mean, at one math.Log.
func (p lognormal) withMean(mean float64) lognormal {
	p.mean = mean
	if mean > 0 {
		p.mu = math.Log(mean) - p.halfVar
	}
	return p
}

func (p *lognormal) draw(rng *randx.Source) float64 {
	if p.mean <= 0 {
		return 0
	}
	if p.cv <= 0 {
		return p.mean
	}
	return rng.LogNormal(p.mu, p.sigma)
}

// arena slab-allocates one generated workflow's Task structs, dependency
// lists and IDs, collapsing the per-task heap traffic of construction into
// three amortized buffers. Task pointers are taken exactly once, immediately
// after each append, and dependency slices are returned with clamped
// capacity, so slab growth never aliases live data.
type arena struct {
	tasks []Task
	deps  []TaskID
	ids   idBuf
}

// newGen returns an empty workflow and its arena, both presized for about
// taskHint tasks and depHint dependency edges.
func newGen(name string, taskHint, depHint int) (*Workflow, *arena) {
	w := newSized(name, taskHint, depHint)
	ar := &arena{
		tasks: make([]Task, 0, taskHint),
		deps:  make([]TaskID, 0, depHint),
	}
	ar.ids.b.Grow(16 * taskHint) // room for every ID of the usual sizes
	return w, ar
}

// task hands out the next slab slot.
func (a *arena) task() *Task {
	a.tasks = append(a.tasks, Task{})
	return &a.tasks[len(a.tasks)-1]
}

// deps1 and deps2 carve single- and double-element dependency lists out of
// the shared slab. markDeps/takeDeps bracket variable-length lists built by
// appending to a.deps directly.
func (a *arena) deps1(x TaskID) []TaskID {
	n := len(a.deps)
	a.deps = append(a.deps, x)
	return a.deps[n : n+1 : n+1]
}

func (a *arena) deps2(x, y TaskID) []TaskID {
	n := len(a.deps)
	a.deps = append(a.deps, x, y)
	return a.deps[n : n+2 : n+2]
}

func (a *arena) markDeps() int { return len(a.deps) }

func (a *arena) takeDeps(mark int) []TaskID {
	if len(a.deps) == mark {
		return nil
	}
	return a.deps[mark:len(a.deps):len(a.deps)]
}

// fill samples one task into t, a zeroed arena slot, field by field (a
// composite literal would be built aside and copied in). The sampling order
// (cores, duration, memory, I/O fraction, input size, output size) is
// load-bearing: it fixes the RNG stream, and with it every golden
// fingerprint downstream.
func (o *GenOpts) fill(t *Task, rng *randx.Source, id string, name string, deps []TaskID) *Task {
	t.ID, t.Name, t.Deps = TaskID(id), name, deps
	t.Cores = o.Cores
	if o.MaxCores > o.Cores {
		t.Cores = o.Cores + rng.Intn(o.MaxCores-o.Cores+1)
	}
	t.NominalDur = o.dur.draw(rng)
	// Data sizes correlate with runtime (longer tasks process more data),
	// which is what makes size-aware scheduling (§3.5's "file size"
	// strategy) informative in practice.
	sizeScale := t.NominalDur / o.MeanDur
	t.MemBytes = o.mem.draw(rng)
	t.IOFrac = rng.Uniform(0.05, 0.3)
	data := o.data.withMean(o.MeanData * sizeScale)
	t.InputBytes = data.draw(rng)
	t.OutputBytes = data.draw(rng)
	return t
}

// idBuf renders one workflow's generated IDs into a single append-only
// strings.Builder: each ID is a substring of the builder's buffer, so IDs
// cost no formatting and no allocation of their own. Bytes once written are
// never modified — growth copies to a new buffer and leaves earlier IDs on
// the old one — so every substring stays valid. num zero-pads with strconv,
// byte-identical to fmt's %0Nd for the non-negative counters generators use.
type idBuf struct {
	b     strings.Builder
	start int
}

func (p *idBuf) begin(prefix string) *idBuf {
	p.start = p.b.Len()
	p.b.WriteString(prefix)
	return p
}

func (p *idBuf) str(s string) *idBuf {
	p.b.WriteString(s)
	return p
}

func (p *idBuf) num(n, width int) *idBuf {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(n), 10)
	for k := len(digits); k < width; k++ {
		p.b.WriteByte('0')
	}
	p.b.Write(digits)
	return p
}

// String returns the ID begun last.
func (p *idBuf) String() string { return p.b.String()[p.start:] }

// dims renders the workflow-name shape family + "XxY".
func dims(family string, x, y int) string {
	return family + strconv.Itoa(x) + "x" + strconv.Itoa(y)
}

// Chain generates a linear pipeline of n tasks.
func Chain(rng *randx.Source, n int, opts GenOpts) *Workflow {
	opts.defaults()
	w, ar := newGen("chain-"+strconv.Itoa(n), n, n)
	var prev TaskID
	for i := 0; i < n; i++ {
		id := ar.ids.begin("t").num(i, 3).String()
		var deps []TaskID
		if prev != "" {
			deps = ar.deps1(prev)
		}
		w.Add(opts.fill(ar.task(), rng, id, "step"+strconv.Itoa(i), deps))
		prev = TaskID(id)
	}
	return w
}

// ForkJoin generates stages of `width` parallel tasks separated by single
// merge tasks — the "merge point" shape §3.2 says makes Airflow's big-worker
// strategy wasteful.
func ForkJoin(rng *randx.Source, stages, width int, opts GenOpts) *Workflow {
	opts.defaults()
	n := stages * (width + 1)
	w, ar := newGen(dims("forkjoin-", stages, width), n, 2*stages*width)
	prev := TaskID("")
	for s := 0; s < stages; s++ {
		fan := "fan" + strconv.Itoa(s)
		stageIDs := make([]TaskID, 0, width)
		for i := 0; i < width; i++ {
			id := ar.ids.begin("s").num(s, 2).str("-w").num(i, 3).String()
			var deps []TaskID
			if prev != "" {
				deps = ar.deps1(prev)
			}
			w.Add(opts.fill(ar.task(), rng, id, fan, deps))
			stageIDs = append(stageIDs, TaskID(id))
		}
		mid := ar.ids.begin("s").num(s, 2).str("-merge").String()
		w.Add(opts.fill(ar.task(), rng, mid, "merge"+strconv.Itoa(s), stageIDs))
		prev = TaskID(mid)
	}
	return w
}

// Diamond generates the 4-task diamond: one source, two branches, one sink.
func Diamond(rng *randx.Source, opts GenOpts) *Workflow {
	opts.defaults()
	w, ar := newGen("diamond", 4, 4)
	w.Add(opts.fill(ar.task(), rng, "src", "src", nil))
	w.Add(opts.fill(ar.task(), rng, "left", "branch", ar.deps1("src")))
	w.Add(opts.fill(ar.task(), rng, "right", "branch", ar.deps1("src")))
	w.Add(opts.fill(ar.task(), rng, "sink", "sink", ar.deps2("left", "right")))
	return w
}

// RandomLayered generates `levels` layers of up to `width` tasks; each task
// depends on 1..3 random tasks of the previous layer. This is the standard
// synthetic-DAG family used in scheduling studies.
func RandomLayered(rng *randx.Source, levels, width int, opts GenOpts) *Workflow {
	opts.defaults()
	w, ar := newGen(dims("layered-", levels, width), levels*width, 3*levels*width)
	var prevLayer []TaskID
	perm := make([]int, 0, max(width, 0)) // one scratch for every task's parent draw
	for l := 0; l < levels; l++ {
		n := 1 + rng.Intn(width)
		if l == 0 {
			n = width // full fan-out at the roots
		}
		proc := "proc" + strconv.Itoa(l)
		layer := make([]TaskID, 0, n)
		for i := 0; i < n; i++ {
			id := ar.ids.begin("l").num(l, 2).str("-t").num(i, 3).String()
			mark := ar.markDeps()
			if len(prevLayer) > 0 {
				k := 1 + rng.Intn(3)
				if k > len(prevLayer) {
					k = len(prevLayer)
				}
				perm = rng.Perm(perm[:len(prevLayer)])
				for j := 0; j < k; j++ {
					ar.deps = append(ar.deps, prevLayer[perm[j]])
				}
			}
			w.Add(opts.fill(ar.task(), rng, id, proc, ar.takeDeps(mark)))
			layer = append(layer, TaskID(id))
		}
		prevLayer = layer
	}
	return w
}

// MontageLike generates the Montage astronomy workflow shape: project fan,
// overlap-pair fit, concat, background correction fan, gather, tile.
func MontageLike(rng *randx.Source, width int, opts GenOpts) *Workflow {
	opts.defaults()
	w, ar := newGen("montage-"+strconv.Itoa(width), 3*width+4, 4*width+2)
	projs := make([]TaskID, 0, width)
	for i := 0; i < width; i++ {
		id := ar.ids.begin("mProject-").num(i, 3).String()
		w.Add(opts.fill(ar.task(), rng, id, "mProject", nil))
		projs = append(projs, TaskID(id))
	}
	diffs := make([]TaskID, 0, width)
	for i := 0; i+1 < width; i++ {
		id := ar.ids.begin("mDiffFit-").num(i, 3).String()
		w.Add(opts.fill(ar.task(), rng, id, "mDiffFit", ar.deps2(projs[i], projs[i+1])))
		diffs = append(diffs, TaskID(id))
	}
	w.Add(opts.fill(ar.task(), rng, "mConcatFit", "mConcatFit", diffs))
	w.Add(opts.fill(ar.task(), rng, "mBgModel", "mBgModel", ar.deps1("mConcatFit")))
	bgs := make([]TaskID, 0, width)
	for i := 0; i < width; i++ {
		id := ar.ids.begin("mBackground-").num(i, 3).String()
		w.Add(opts.fill(ar.task(), rng, id, "mBackground", ar.deps2(projs[i], "mBgModel")))
		bgs = append(bgs, TaskID(id))
	}
	w.Add(opts.fill(ar.task(), rng, "mImgtbl", "mImgtbl", bgs))
	w.Add(opts.fill(ar.task(), rng, "mAdd", "mAdd", ar.deps1("mImgtbl")))
	w.Add(opts.fill(ar.task(), rng, "mViewer", "mViewer", ar.deps1("mAdd")))
	return w
}

// EpigenomicsLike generates the Epigenomics bioinformatics shape: per-lane
// linear pipelines that merge into a global final chain.
func EpigenomicsLike(rng *randx.Source, lanes, depth int, opts GenOpts) *Workflow {
	opts.defaults()
	n := lanes*depth + 3
	w, ar := newGen(dims("epigenomics-", lanes, depth), n, lanes*depth+2)
	stage := make([]string, depth)
	for d := range stage {
		stage[d] = "stage" + strconv.Itoa(d)
	}
	tails := make([]TaskID, 0, lanes)
	for l := 0; l < lanes; l++ {
		var prev TaskID
		for d := 0; d < depth; d++ {
			id := ar.ids.begin("lane").num(l, 2).str("-s").num(d, 2).String()
			var deps []TaskID
			if prev != "" {
				deps = ar.deps1(prev)
			}
			w.Add(opts.fill(ar.task(), rng, id, stage[d], deps))
			prev = TaskID(id)
		}
		tails = append(tails, prev)
	}
	w.Add(opts.fill(ar.task(), rng, "merge", "mergeSort", tails))
	w.Add(opts.fill(ar.task(), rng, "map", "map", ar.deps1("merge")))
	w.Add(opts.fill(ar.task(), rng, "filter", "pileup", ar.deps1("map")))
	return w
}

// RNASeqLike generates a transcriptomics-atlas-shaped workflow: `samples`
// independent 4-step pipelines (prefetch → fasterq → salmon → deseq2), as in
// §5's "multiple independent pipelines processed in parallel".
func RNASeqLike(rng *randx.Source, samples int, opts GenOpts) *Workflow {
	opts.defaults()
	w, ar := newGen("rnaseq-"+strconv.Itoa(samples), samples*4, samples*3)
	for s := 0; s < samples; s++ {
		var prev TaskID
		for _, st := range rnaseqSteps {
			id := ar.ids.begin(st).str("-").num(s, 4).String()
			var deps []TaskID
			if prev != "" {
				deps = ar.deps1(prev)
			}
			w.Add(opts.fill(ar.task(), rng, id, st, deps))
			prev = TaskID(id)
		}
	}
	return w
}

var rnaseqSteps = [...]string{"prefetch", "fasterq", "salmon", "deseq2"}
