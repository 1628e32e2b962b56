// Command e2e runs the wall-clock end-to-end benchmark.
//
//	e2e [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-sets K] [-json FILE]
//
// Each workload runs in fresh child processes, one after another. Without
// -workload all four run. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics; the tables
// and digests go to standard error. With -trace 1 the metrics are the
// per-layer ones. With -sets K every workload is measured K times, and the
// command fails when two sets disagree by more than a metric's bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sort"
	"syscall"
	"time"

	"hhcw/bench"
)

// budget bounds one measurement of one workload, children included.
const budget = 170 * time.Second

func main() {
	if os.Getenv(bench.ChildEnv) != "" {
		os.Exit(bench.ChildMain(os.Args[1:]))
	}
	workload := flag.String("workload", "", "workload to run: ensemble, ensemble-storm, service or stream-1m (default all)")
	seed := flag.Int64("seed", bench.DefaultSeed, "seed the workload inputs are made from")
	seconds := flag.Float64("seconds", 20, "seconds of timed blocks per untraced measurement")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	sets := flag.Int("sets", 1, "measure every workload this many times and compare the sets")
	jsonOut := flag.String("json", "", "write every result, with quartiles and digests, to this file")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *sets < 1 || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range bench.Workloads() {
			names = append(names, w.Name)
		}
	} else if _, err := bench.Lookup(*workload); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// An interrupted run stops its children and waits for them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, names, *seed, *seconds, *trace == 1, *sets, *jsonOut)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, names []string, seed int64, seconds float64, trace bool, sets int, jsonOut string) int {
	fmt.Fprintf(os.Stderr, "e2e: %d workload(s), seed %d, GOMAXPROCS %d per child, trace %v, %d set(s)\n",
		len(names), seed, bench.Procs(), trace, sets)
	var all [][]*bench.Result // [set][workload]
	for s := 0; s < sets; s++ {
		var set []*bench.Result
		for _, name := range names {
			wctx, cancel := context.WithTimeout(ctx, budget)
			r, err := bench.Measure(wctx, bench.Config{Workload: name, Seed: seed, Seconds: seconds, Trace: trace})
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", name, err)
				return 1
			}
			report(os.Stderr, s, r)
			set = append(set, r)
		}
		all = append(all, set)
	}
	code := 0
	if sets > 1 && !trace && !compareSets(os.Stderr, all) {
		code = 1
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: writing %s: %v\n", jsonOut, err)
			return 1
		}
	}
	line, err := resultLine(all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	for _, set := range all {
		for _, r := range set {
			if !r.Correct {
				code = 1
			}
		}
	}
	return code
}

// report prints one result as a table with its digests and problems.
func report(w io.Writer, set int, r *bench.Result) {
	fmt.Fprintf(w, "\n== %s (set %d, seed %d): correct %v, %d attempted, %d failed\n",
		r.Workload, set+1, r.Seed, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(w, "   check digest %s\n   digest       %s\n", r.CheckDigest, r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "   %-34s %14s %-8s %6s %14s %14s %14s\n", "metric", "value", "unit", "n", "q1", "q3", "unscaled")
	for _, name := range sortedKeys(r.Metrics) {
		m, s := r.Metrics[name], r.Spread[name]
		unscaled := ""
		if v, ok := r.Unscaled[name]; ok {
			unscaled = fmt.Sprintf("%.6g", v)
		}
		fmt.Fprintf(w, "   %-34s %14.6g %-8s %6d %14.6g %14.6g %14s\n", name, m.Value, m.Unit, s.N, s.Q1, s.Q3, unscaled)
	}
}

// compareSets prints, per workload and end-to-end metric, every set's value
// and their spread — (max − min) / median — against the metric's bound, and
// reports whether every spread is within its bound.
func compareSets(w io.Writer, all [][]*bench.Result) bool {
	ok := true
	fmt.Fprintf(w, "\n== repeatability over %d sets\n   %-16s %-12s %10s %8s  values\n", len(all), "workload", "metric", "spread", "bound")
	for wi := range all[0] {
		for _, d := range bench.EndToEnd {
			var vals []float64
			for _, set := range all {
				vals = append(vals, set[wi].Metrics[d.Name].Value)
			}
			spread := (slices.Max(vals) - slices.Min(vals)) / bench.Quantile(vals, 0.5)
			verdict := ""
			if spread > d.Bound {
				ok, verdict = false, "  OVER BOUND"
			}
			fmt.Fprintf(w, "   %-16s %-12s %9.2f%% %7.0f%%  %v%s\n",
				all[0][wi].Workload, d.Name, 100*spread, 100*d.Bound, vals, verdict)
		}
	}
	return ok
}

// resultLine is the last line of output. For one workload measured once it
// is that result's line; otherwise metric names are prefixed with the
// workload and each value is the median over the sets.
func resultLine(all [][]*bench.Result) ([]byte, error) {
	if len(all) == 1 && len(all[0]) == 1 {
		return all[0][0].Line()
	}
	out := bench.Result{Correct: true, Metrics: map[string]bench.Value{}}
	for wi := range all[0] {
		for _, name := range sortedKeys(all[0][wi].Metrics) {
			var vals []float64
			for _, set := range all {
				vals = append(vals, set[wi].Metrics[name].Value)
			}
			out.Metrics[all[0][wi].Workload+"."+name] = bench.Value{
				Value: bench.Quantile(vals, 0.5), Unit: all[0][wi].Metrics[name].Unit,
			}
		}
		for _, set := range all {
			out.Correct = out.Correct && set[wi].Correct
			out.Attempted += set[wi].Attempted
			out.Failed += set[wi].Failed
		}
	}
	return out.Line()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
