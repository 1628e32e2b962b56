package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// ChildEnv marks a process as a measurement child; ChildMain then runs it.
const ChildEnv = "HHCW_BENCH_CHILD"

const (
	// readyLine is what a child prints once its warm-up block is done; the
	// parent times set-up from the child's start to this line.
	readyLine = "ready"
	// blockLine is what a child prints after each timed block. After either
	// line the child waits until the parent, having timed the gauge, writes
	// the gauge time in nanoseconds on the child's standard input.
	blockLine = "block"
	// minTimedBlocks is the least number of timed blocks a time-bound run
	// measures, however short --seconds is.
	minTimedBlocks = 3
	// checkBlocks is the number of timed blocks folded, after the warm-up
	// block, into the digest compared with the committed one.
	checkBlocks = 2
)

// childOptions configure one child process.
type childOptions struct {
	workload string
	seed     int64
	seconds  float64
	blocks   int // fixed timed blocks; 0 runs blocks until seconds have passed
	tiny     bool
	probe    bool // stop after the warm-up block
	trace    bool
	outDir   string // where a traced child writes its spans and CPU profile
}

func (o childOptions) args() []string {
	return []string{
		"-workload", o.workload,
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-blocks", fmt.Sprint(o.blocks),
		"-tiny=" + fmt.Sprint(o.tiny),
		"-probe=" + fmt.Sprint(o.probe),
		"-trace=" + fmt.Sprint(o.trace),
		"-out", o.outDir,
	}
}

// ChildMain runs a measurement child with the arguments its parent passed
// and returns the process exit code.
func ChildMain(args []string) int {
	var o childOptions
	fs := flag.NewFlagSet("bench-child", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "")
	fs.Int64Var(&o.seed, "seed", DefaultSeed, "")
	fs.Float64Var(&o.seconds, "seconds", 10, "")
	fs.IntVar(&o.blocks, "blocks", 0, "")
	fs.BoolVar(&o.tiny, "tiny", false, "")
	fs.BoolVar(&o.probe, "probe", false, "")
	fs.BoolVar(&o.trace, "trace", false, "")
	fs.StringVar(&o.outDir, "out", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runChild(o, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

// BlockStat is one timed block as the child measured it.
type BlockStat struct {
	WallNS int64 `json:"wall_ns"`
	Units  int   `json:"units"`
	Tasks  int   `json:"tasks"`
	// Scale takes the block's wall time to the quiet host's (see gauge.go).
	Scale float64 `json:"scale"`
	// PeakRSSMB is the process's peak resident set during the block.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// RuntimeStats are runtime/metrics deltas over the timed blocks.
type RuntimeStats struct {
	AllocObjects uint64  `json:"alloc_objects"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	GCCPUSec     float64 `json:"gc_cpu_s"`
	UsedCPUSec   float64 `json:"used_cpu_s"`
}

// ChildResult is the one JSON line a child reports to its parent.
type ChildResult struct {
	Blocks []BlockStat `json:"blocks"`
	// Latency quantiles of the units, each scaled by its block's Scale, and
	// the same quantiles of the unscaled wall times.
	LatP50MS     float64 `json:"lat_p50_ms"`
	LatP90MS     float64 `json:"lat_p90_ms"`
	WallLatP50MS float64 `json:"wall_lat_p50_ms"`
	WallLatP90MS float64 `json:"wall_lat_p90_ms"`
	LatN         int     `json:"lat_n"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	// Digest folds the fingerprints of every block run, warm-up first;
	// CheckDigest stops after the first checkBlocks timed blocks, so it
	// does not depend on how many blocks fit in the run.
	Digest      string           `json:"digest"`
	CheckDigest string           `json:"check_digest"`
	Errors      []string         `json:"errors,omitempty"`
	Runtime     RuntimeStats     `json:"runtime"`
	Counters    *Counters        `json:"counters,omitempty"`
	BusyNS      map[string]int64 `json:"busy_ns,omitempty"`
}

func runChild(o childOptions, in io.Reader, out io.Writer) error {
	w, err := Lookup(o.workload)
	if err != nil {
		return err
	}
	if o.tiny {
		w = w.Tiny()
	}
	var tr *Tracer
	if o.trace {
		tr = NewTracer()
	}
	run := w.build(w, o.seed, tr)
	res := &ChildResult{}
	h := sha256.New()
	warm, err := run(0)
	if err != nil {
		return fmt.Errorf("warm-up block: %w", err)
	}
	res.fold(h, warm)
	res.CheckDigest = hex.EncodeToString(h.Sum(nil))
	gauges := bufio.NewScanner(in)
	prev, err := exchange(out, gauges, readyLine)
	if err != nil || o.probe {
		return err
	}

	tr.reset()
	var profile *os.File
	if tr != nil {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return err
		}
		if profile, err = os.Create(filepath.Join(o.outDir, w.Name+".cpu.pprof")); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(profile); err != nil {
			return err
		}
	}
	before := readRuntime()
	var lat, wallLat []float64
	start := time.Now()
	for b := 1; ; b++ {
		if o.blocks > 0 && b > o.blocks ||
			o.blocks == 0 && b > minTimedBlocks && time.Since(start).Seconds() >= o.seconds {
			break
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		t0 := time.Now()
		tr.beginBlock(t0)
		blk, err := run(b)
		wall := time.Since(t0)
		tr.endBlock()
		if err != nil {
			res.Attempted++
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("block %d: %v", b, err))
			break
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		next, err := exchange(out, gauges, blockLine)
		if err != nil {
			return err
		}
		scale := scaleOf(prev, next)
		prev = next
		res.Blocks = append(res.Blocks, BlockStat{
			WallNS: int64(wall), Units: blk.Units, Tasks: blk.Tasks, Scale: scale, PeakRSSMB: rss,
		})
		for _, d := range blk.Lat {
			ms := float64(d) / 1e6
			lat, wallLat = append(lat, ms*scale), append(wallLat, ms)
		}
		res.fold(h, blk)
		if b <= checkBlocks {
			res.CheckDigest = hex.EncodeToString(h.Sum(nil))
		}
	}
	res.Runtime = readRuntime().since(before)
	if tr != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			return err
		}
		c := tr.C
		res.Counters, res.BusyNS = &c, tr.busyNS()
		if err := writeSpans(filepath.Join(o.outDir, w.Name+".spans.json"), tr); err != nil {
			return err
		}
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))

	if w.Recheck {
		// The warm-up block again, after everything the timed blocks did
		// in this process: a deterministic simulator must repeat it exactly.
		again, err := run(0)
		res.Attempted += again.Units
		if err != nil || again.Fingerprint != warm.Fingerprint {
			res.Failed += warm.Units
			res.Errors = append(res.Errors, fmt.Sprintf("warm-up block did not repeat (err %v)", err))
		}
	}
	if len(lat) > 0 {
		res.LatP50MS, res.LatP90MS = Quantile(lat, 0.5), Quantile(lat, 0.9)
		res.WallLatP50MS, res.WallLatP90MS = Quantile(wallLat, 0.5), Quantile(wallLat, 0.9)
		res.LatN = len(lat)
	}
	return json.NewEncoder(out).Encode(res)
}

// resetPeakRSS restarts the kernel's count of this process's peak resident
// set, so that peakRSSMB reports the peak since the call. The peak over a
// whole run is the largest of many samples that GC timing moves; the peak
// of each block, median over the blocks, repeats far better.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// exchange prints line and returns the gauge time the parent answers with.
func exchange(out io.Writer, gauges *bufio.Scanner, line string) (time.Duration, error) {
	if _, err := fmt.Fprintln(out, line); err != nil {
		return 0, err
	}
	if !gauges.Scan() {
		return 0, fmt.Errorf("no gauge time after %q (%v)", line, gauges.Err())
	}
	ns, err := strconv.ParseInt(gauges.Text(), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("bad gauge time %q after %q", gauges.Text(), line)
	}
	return time.Duration(ns), nil
}

// fold counts a block's units and hashes its fingerprint into the digest.
func (res *ChildResult) fold(h hash.Hash, blk Block) {
	res.Attempted += blk.Units
	res.Failed += blk.Failed
	io.WriteString(h, blk.Fingerprint)
	h.Write([]byte{'\n'})
}

// writeSpans writes the traced run's spans, counts and busy times.
func writeSpans(path string, tr *Tracer) error {
	b, err := json.Marshal(struct {
		Counters Counters         `json:"counters"`
		BusyNS   map[string]int64 `json:"busy_ns"`
		Spans    []Span           `json:"spans"`
	}{tr.C, tr.busyNS(), tr.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() RuntimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return RuntimeStats{
		AllocObjects: s[0].Value.Uint64(),
		AllocBytes:   s[1].Value.Uint64(),
		GCCPUSec:     s[2].Value.Float64(),
		UsedCPUSec:   s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

func (r RuntimeStats) since(before RuntimeStats) RuntimeStats {
	return RuntimeStats{
		AllocObjects: r.AllocObjects - before.AllocObjects,
		AllocBytes:   r.AllocBytes - before.AllocBytes,
		GCCPUSec:     r.GCCPUSec - before.GCCPUSec,
		UsedCPUSec:   r.UsedCPUSec - before.UsedCPUSec,
	}
}
