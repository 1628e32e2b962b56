package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// DefaultSeed is the seed the committed digests were recorded with.
const DefaultSeed = 1

// setupProbes is the number of children started only to time set-up; the
// measurement child gives one more sample. With three samples, a burst of
// host load made two runs' set-up medians differ by 46%.
const setupProbes = 4

// Config configures one measurement of one workload.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64 // how long the untraced child runs timed blocks
	Trace    bool    // measure per-layer metrics instead of end-to-end ones
	// Tiny and Blocks shrink a run for tests: tiny blocks, and a fixed
	// number of timed blocks instead of Seconds (traced runs default to
	// the workload's TraceBlocks).
	Tiny   bool
	Blocks int
	OutDir string // where traced children write spans and CPU profiles; "" means .bench_build/trace
}

// Value is one metric as the result line reports it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Spread is the sample count and quartiles behind a metric.
type Spread struct {
	N  int     `json:"n"`
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
}

// Result is one measurement of one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Value  `json:"metrics"`
	Spread    map[string]Spread `json:"spread"`
	// Unscaled holds each timed end-to-end metric as plain wall-clock time
	// gives it, before the gauge scaling (see gauge.go).
	Unscaled map[string]float64 `json:"unscaled,omitempty"`
	// CheckDigest folds the warm-up block and the first timed blocks;
	// Digest folds every block of the last child.
	CheckDigest string         `json:"check_digest"`
	Digest      string         `json:"digest"`
	Problems    []string       `json:"problems,omitempty"`
	Children    []*ChildResult `json:"children"`
}

// Line is the result line: correctness, counts and metric values only.
func (r *Result) Line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// Procs is the GOMAXPROCS of every child: at most two threads, and no
// more than the machine has.
func Procs() int { return min(2, runtime.NumCPU()) }

// Measure runs one workload in fresh child processes, one after another,
// and returns its metrics: the end-to-end ones, or with cfg.Trace the
// per-layer ones.
func Measure(ctx context.Context, cfg Config) (*Result, error) {
	w, err := Lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if cfg.OutDir == "" {
		cfg.OutDir = filepath.Join(".bench_build", "trace")
	}
	res := &Result{
		Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace,
		Metrics: map[string]Value{}, Spread: map[string]Spread{},
	}
	opts := childOptions{
		workload: w.Name, seed: cfg.Seed, seconds: cfg.Seconds,
		blocks: cfg.Blocks, tiny: cfg.Tiny, outDir: cfg.OutDir,
	}
	want := ""
	if cfg.Seed == DefaultSeed {
		want = committedDigests[digestKey(w.Name, cfg.Tiny)]
	}
	g := newGauge()
	if cfg.Trace {
		err = measureLayers(ctx, exe, g, cfg.OutDir, w, opts, res, want)
	} else {
		err = measureEndToEnd(ctx, exe, g, opts, res, want)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

func measureEndToEnd(ctx context.Context, exe string, g *gauge, opts childOptions, res *Result, want string) error {
	// The probes and then the measurement child each give a set-up sample.
	var setup, wallSetup []float64
	var c *child
	for i := 0; i <= setupProbes; i++ {
		o := opts
		o.probe = i < setupProbes
		var err error
		if c, err = launch(ctx, exe, g, o); err != nil {
			return err
		}
		sec := c.setup.Seconds()
		setup = append(setup, sec*scaleOf(c.setupGauges[0], c.setupGauges[1]))
		wallSetup = append(wallSetup, sec)
		if o.probe {
			if err := c.wait(); err != nil {
				return err
			}
		}
	}
	cr, err := c.result()
	if err != nil {
		return err
	}
	res.add(cr, want)

	var tasks, runs, wallTasks, wallRuns, rss []float64
	for _, b := range cr.Blocks {
		sec := float64(b.WallNS) / 1e9
		tasks, runs = append(tasks, float64(b.Tasks)/(sec*b.Scale)), append(runs, float64(b.Units)/(sec*b.Scale))
		wallTasks, wallRuns = append(wallTasks, float64(b.Tasks)/sec), append(wallRuns, float64(b.Units)/sec)
		rss = append(rss, b.PeakRSSMB)
	}
	res.median("tasks_per_s", tasks)
	res.median("runs_per_s", runs)
	res.set("run_p50_ms", cr.LatP50MS, Spread{N: cr.LatN})
	res.set("run_p90_ms", cr.LatP90MS, Spread{N: cr.LatN})
	res.median("setup_s", setup)
	res.median("max_rss_mb", rss)
	res.Unscaled = map[string]float64{
		"tasks_per_s": Quantile(wallTasks, 0.5),
		"runs_per_s":  Quantile(wallRuns, 0.5),
		"run_p50_ms":  cr.WallLatP50MS,
		"run_p90_ms":  cr.WallLatP90MS,
		"setup_s":     Quantile(wallSetup, 0.5),
	}
	return nil
}

func measureLayers(ctx context.Context, exe string, g *gauge, outDir string, w Workload, opts childOptions, res *Result, want string) error {
	if opts.blocks == 0 {
		opts.blocks = w.TraceBlocks
	}
	traced := opts
	traced.trace = true
	var crs [2]*ChildResult
	for i, o := range []childOptions{opts, traced} {
		c, err := launch(ctx, exe, g, o)
		if err != nil {
			return err
		}
		if crs[i], err = c.result(); err != nil {
			return err
		}
		res.add(crs[i], want)
	}
	if crs[0].Digest != crs[1].Digest {
		res.Problems = append(res.Problems, "traced digest differs from the untraced one")
	}
	if crs[1].Counters == nil {
		return fmt.Errorf("bench: traced child of %s reported no counters", w.Name)
	}
	shares, err := profileShares(ctx, filepath.Join(outDir, w.Name+".cpu.pprof"))
	if err != nil {
		return err
	}
	vals := layerValues(crs[0], crs[1], shares)
	for _, d := range PerLayer() {
		res.set(d.Name, vals[d.Name], Spread{N: len(crs[1].Blocks)})
	}
	return nil
}

// add folds a child's outcome into the result and compares its check
// digest with the committed one, when there is one.
func (r *Result) add(cr *ChildResult, want string) {
	r.Children = append(r.Children, cr)
	r.Attempted += cr.Attempted
	r.Failed += cr.Failed
	r.Problems = append(r.Problems, cr.Errors...)
	r.CheckDigest, r.Digest = cr.CheckDigest, cr.Digest
	if want != "" && cr.CheckDigest != want {
		r.Failed++
		r.Problems = append(r.Problems, fmt.Sprintf("check digest %s, committed %s", cr.CheckDigest, want))
	}
}

// set records a metric with its catalogued unit.
func (r *Result) set(name string, v float64, s Spread) {
	unit, err := unitOf(name)
	if err != nil {
		panic(err) // every name passed here is a literal from the catalog
	}
	r.Metrics[name] = Value{Value: v, Unit: unit}
	r.Spread[name] = s
}

// median records the median of samples, with their quartiles.
func (r *Result) median(name string, samples []float64) {
	r.set(name, Quantile(samples, 0.5), Spread{
		N: len(samples), Q1: Quantile(samples, 0.25), Q3: Quantile(samples, 0.75),
	})
}

// child is one running measurement child.
type child struct {
	cmd   *exec.Cmd
	in    io.Writer
	lines *bufio.Scanner
	gauge *gauge
	// setup is the time from starting the child to its ready line: process
	// start, session and substrate construction, the warm-up block.
	// setupGauges are the gauge times just before and just after it.
	setup       time.Duration
	setupGauges [2]time.Duration
}

// launch starts exe as a child with GOMAXPROCS set to Procs, waits for its
// ready line and answers it with a gauge time.
func launch(ctx context.Context, exe string, g *gauge, o childOptions) (*child, error) {
	cmd := exec.CommandContext(ctx, exe, o.args()...)
	cmd.Env = append(os.Environ(), ChildEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", Procs()))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, in: in, lines: bufio.NewScanner(out), gauge: g}
	c.lines.Buffer(make([]byte, 64<<10), 16<<20)
	c.setupGauges[0] = g.measure()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting child: %w", err)
	}
	if !c.lines.Scan() || c.lines.Text() != readyLine {
		return nil, c.fail("no ready line")
	}
	c.setup = time.Since(start)
	if c.setupGauges[1], err = c.answer(); err != nil {
		return nil, err
	}
	return c, nil
}

// answer times the gauge while the child waits and sends it the time.
func (c *child) answer() (time.Duration, error) {
	d := c.gauge.measure()
	if _, err := fmt.Fprintln(c.in, int64(d)); err != nil {
		return 0, c.fail("sending a gauge time: " + err.Error())
	}
	return d, nil
}

// result answers the child's block lines until its result line, and waits
// for it to exit.
func (c *child) result() (*ChildResult, error) {
	for {
		if !c.lines.Scan() {
			return nil, c.fail("no result line")
		}
		if c.lines.Text() != blockLine {
			break
		}
		if _, err := c.answer(); err != nil {
			return nil, err
		}
	}
	var cr ChildResult
	if err := json.Unmarshal(c.lines.Bytes(), &cr); err != nil {
		return nil, c.fail("bad result line: " + err.Error())
	}
	return &cr, c.wait()
}

// wait waits for the child to exit; a nonzero exit is an error.
func (c *child) wait() error {
	for c.lines.Scan() {
	}
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("bench child: %w", err)
	}
	return nil
}

// fail stops a child that broke the protocol, waits for it, and returns
// the error to report.
func (c *child) fail(what string) error {
	// Kill fails only if the child has already exited; Wait reaps it
	// either way and its error says how it ended.
	_ = c.cmd.Process.Kill()
	return fmt.Errorf("bench child: %s (%v)", what, c.cmd.Wait())
}
