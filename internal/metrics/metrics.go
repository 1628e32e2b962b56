// Package metrics provides time-series collection and aggregation over
// virtual time: counters, gauges sampled into series, procstat-style
// per-process resource samples (CPU%, iowait%, RSS), and utilization
// integrals. It mirrors what the paper gathers with CloudWatch Agent +
// procstat (§5) and what EnTK reports as utilization (§4, Fig 4).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"hhcw/internal/sim"
)

// Point is one sample of a series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series. Samples must be appended in
// nondecreasing time order (the sim kernel guarantees this naturally).
type Series struct {
	Name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Out-of-order samples panic: they indicate a causality
// bug in the caller.
func (s *Series) Add(t sim.Time, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		panic(fmt.Sprintf("metrics: out-of-order sample on %q: %v after %v", s.Name, t, s.points[n-1].T))
	}
	if s.points == nil {
		// Live series accumulate hundreds of samples; starting at a real
		// capacity skips the first several append-doublings on the sampling
		// hot path without bloating series that never record.
		s.points = make([]Point, 0, 64)
	}
	s.points = append(s.points, Point{t, v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns the underlying samples (not a copy; callers must not
// mutate).
func (s *Series) Points() []Point { return s.points }

// Integral returns the time integral of the step-interpolated series over
// [from,to]: sum of value×duration. Useful for node-seconds and core-seconds.
func (s *Series) Integral(from, to sim.Time) float64 {
	if to <= from || len(s.points) == 0 {
		return 0
	}
	total := 0.0
	// Value before the first point is 0.
	for i, p := range s.points {
		start := p.T
		var end sim.Time
		if i+1 < len(s.points) {
			end = s.points[i+1].T
		} else {
			end = to
		}
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		if end > start {
			total += p.V * float64(end-start)
		}
	}
	return total
}

// TimeWeightedMean returns Integral(from,to) / (to-from).
func (s *Series) TimeWeightedMean(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	return s.Integral(from, to) / float64(to-from)
}

// Counter is a monotonically increasing count that records its trajectory.
type Counter struct {
	Series
	value float64
}

// NewCounter returns a zero counter with the given series name.
func NewCounter(name string) *Counter {
	return &Counter{Series: Series{Name: name}}
}

// Inc adds delta (>=0) at time t and records the new value.
func (c *Counter) Inc(t sim.Time, delta float64) {
	if delta < 0 {
		panic("metrics: Counter.Inc with negative delta")
	}
	c.value += delta
	c.Add(t, c.value)
}

// Gauge is an up/down level that records its trajectory (e.g. tasks running).
type Gauge struct {
	Series
	value float64
}

// NewGauge returns a zero gauge with the given series name.
func NewGauge(name string) *Gauge {
	return &Gauge{Series: Series{Name: name}}
}

// Set records an absolute level at time t.
func (g *Gauge) Set(t sim.Time, v float64) {
	g.value = v
	g.Add(t, v)
}

// AddDelta adjusts the level by delta at time t.
func (g *Gauge) AddDelta(t sim.Time, delta float64) {
	g.Set(t, g.value+delta)
}

// Agg summarizes a set of scalar observations: the mean/max pairs the paper's
// Table 1 and Table 2 report.
type Agg struct {
	N         int
	Sum       float64
	Min, Maxv float64
}

// Observe folds one value into the aggregate.
func (a *Agg) Observe(v float64) {
	if a.N == 0 || v < a.Min {
		a.Min = v
	}
	if a.N == 0 || v > a.Maxv {
		a.Maxv = v
	}
	a.N++
	a.Sum += v
}

// Mean returns the mean of observed values (0 if none).
func (a *Agg) Mean() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Sum / float64(a.N)
}

// Max returns the maximum observed value (0 if none).
func (a *Agg) Max() float64 { return a.Maxv }

// ProcSample is one procstat-style observation of a running process.
type ProcSample struct {
	CPUPct    float64 // 0..100 per-instance CPU usage
	IOWaitPct float64 // 0..100 CPU iowait share
	RSSBytes  float64 // resident memory
}

// ProcStats aggregates ProcSamples for one pipeline step across executions,
// exactly the shape of the paper's Table 1 rows.
type ProcStats struct {
	Step   string
	CPU    Agg
	IOWait Agg
	RSS    Agg
}

// Observe folds one sample.
func (p *ProcStats) Observe(s ProcSample) {
	p.CPU.Observe(s.CPUPct)
	p.IOWait.Observe(s.IOWaitPct)
	p.RSS.Observe(s.RSSBytes)
}

// Summary distills a sample set into the order statistics the sweep engine
// reports per (workflow, env) cell. Non-finite inputs (NaN, ±Inf) are
// rejected before aggregation and counted in Dropped: a single poisoned
// sample must not turn a whole ensemble row into NaN.
type Summary struct {
	N                          int
	Min, Median, P90, Max, Sum float64
	// Dropped counts NaN/Inf inputs excluded from the statistics.
	Dropped int
}

// Mean returns Sum/N (0 if empty).
func (s Summary) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Summarize computes a Summary over values. Empty (or all-non-finite) input
// yields a zero Summary with the Dropped count preserved; a single sample
// makes every order statistic that sample. The input is left untouched (it
// is copied before sorting); hot paths that own their slice should call
// SummarizeInPlace instead and skip the copy.
func Summarize(values []float64) Summary {
	buf := make([]float64, len(values))
	copy(buf, values)
	return SummarizeInPlace(buf)
}

// SummarizeInPlace is Summarize without the defensive copy: it compacts the
// finite values to the front of the slice and sorts them there, so the
// caller's slice is reordered (and truncated of non-finite values in its
// prefix). It allocates nothing — the sweep engine calls it once per cell
// metric on a reused scratch slice. The statistics are bit-identical to
// Summarize's: the fold order of Sum and the sort are unchanged.
func SummarizeInPlace(values []float64) Summary {
	var s Summary
	n := 0
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			s.Dropped++
			continue
		}
		values[n] = v
		n++
		s.Sum += v
	}
	finite := values[:n]
	s.N = n
	if n == 0 {
		return s
	}
	sort.Float64s(finite)
	s.Min = finite[0]
	s.Max = finite[n-1]
	s.Median = QuantileSorted(finite, 0.5)
	s.P90 = QuantileSorted(finite, 0.9)
	return s
}

// QuantileSorted returns the q-quantile (0..1) of sorted, finite input
// using linear interpolation; q outside [0, 1] clamps to the extremes and
// an empty input yields 0. It neither copies nor sorts: Summarize calls it
// on its sorted sample set so each cell pays for one sort, and so does any
// caller reading several quantiles of one sample.
func QuantileSorted(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[len(v)-1]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return v[lo]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

// HumanBytes formats a byte count like "2.8GB" as the paper's tables do.
func HumanBytes(b float64) string {
	switch {
	case b >= 1e12:
		return fmt.Sprintf("%.1fTB", b/1e12)
	case b >= 1e9:
		return fmt.Sprintf("%.1fGB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.0fMB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.0fKB", b/1e3)
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// HumanSeconds formats a duration in seconds like the paper's tables
// ("9.6min", "36s", "2.7h").
func HumanSeconds(s float64) string {
	switch {
	case s >= 3600:
		return fmt.Sprintf("%.1fh", s/3600)
	case s >= 60:
		return fmt.Sprintf("%.1fmin", s/60)
	default:
		return fmt.Sprintf("%.0fs", s)
	}
}
