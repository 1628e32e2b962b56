// Package predict implements the task runtime and resource prediction
// methods §3.4 plans to plug into the CWSI: online per-task-name means,
// least-squares regression on input size, and a Lotaru-style predictor that
// scales an observed processing rate by machine speed factors to handle
// heterogeneous infrastructures and unseen (workflow, machine) pairs.
//
// All predictors are trained online from provenance observations ("as these
// metrics are constantly gathered and updated, also online learning
// approaches are applicable").
package predict

import (
	"fmt"
	"math"
)

// Observation is one completed task execution, as recorded by the CWS
// provenance store.
type Observation struct {
	TaskName    string  // process/tool name
	InputBytes  float64 // total input size
	RuntimeSec  float64 // measured wall time
	PeakMem     float64 // measured peak RSS
	MachineName string  // node type the task ran on
	SpeedFactor float64 // that node type's speed factor (1 = reference)
}

// RuntimePredictor estimates a task's runtime on a target machine.
type RuntimePredictor interface {
	// Observe folds a completed execution into the model. Invalid
	// observations — non-finite or negative runtime/input size, or a
	// speed factor that is zero, negative, or non-finite — are rejected
	// rather than poisoning the model.
	Observe(Observation)
	// Predict estimates runtime in seconds for a task of the given name
	// and input size on a machine with the given speed factor. ok=false
	// means the model has no basis for a prediction (cold start).
	Predict(taskName string, inputBytes, speedFactor float64) (sec float64, ok bool)
}

// Sampler is implemented by predictors that can report how many valid
// observations have been folded for a task name. Schedulers use it to gate
// predictions on model warmth (a minimum sample count) so a barely-trained
// model never drives placement, kills, or packing decisions.
type Sampler interface {
	Samples(taskName string) int
}

// usable reports whether an observation may train a runtime model: runtime
// and input size must be finite and non-negative, the speed factor finite
// and strictly positive. (The memory predictor has its own rule — it never
// reads the speed factor.)
func usable(o Observation) bool {
	if math.IsNaN(o.RuntimeSec) || math.IsInf(o.RuntimeSec, 0) || o.RuntimeSec < 0 {
		return false
	}
	if math.IsNaN(o.InputBytes) || math.IsInf(o.InputBytes, 0) || o.InputBytes < 0 {
		return false
	}
	if math.IsNaN(o.SpeedFactor) || math.IsInf(o.SpeedFactor, 0) || o.SpeedFactor <= 0 {
		return false
	}
	return true
}

// models is a per-task-name model table: one name→slot map over a dense
// model slice, so observing a seen name costs one lookup and no allocation.
type models[M any] struct {
	slot map[string]int32
	rows []M
}

// get returns a copy of name's model; the zero model before its first
// observation.
func (t *models[M]) get(name string) M {
	if i, ok := t.slot[name]; ok {
		return t.rows[i]
	}
	var zero M
	return zero
}

// at returns name's model, opening a zero one on first sight.
func (t *models[M]) at(name string) *M {
	i, ok := t.slot[name]
	if !ok {
		if t.slot == nil {
			// Workflows name a handful of processes: one allocation each
			// for the map and the rows covers the usual model.
			t.slot = make(map[string]int32, 8)
			t.rows = make([]M, 0, 8)
		}
		i = int32(len(t.rows))
		t.slot[name] = i
		var zero M
		t.rows = append(t.rows, zero)
	}
	return &t.rows[i]
}

// MeanPredictor predicts the historical mean runtime per task name,
// normalized to the reference machine. This is the simplest online baseline.
type MeanPredictor struct {
	m models[meanModel]
}

type meanModel struct {
	sum float64
	n   int
}

// NewMean returns an empty mean predictor.
func NewMean() *MeanPredictor { return &MeanPredictor{} }

// Observe implements RuntimePredictor. Runtimes are normalized to the
// reference machine by multiplying with the observed speed factor.
func (p *MeanPredictor) Observe(o Observation) {
	if !usable(o) {
		return
	}
	m := p.m.at(o.TaskName)
	m.sum += o.RuntimeSec * o.SpeedFactor
	m.n++
}

// Samples implements Sampler.
func (p *MeanPredictor) Samples(taskName string) int { return p.m.get(taskName).n }

// Predict implements RuntimePredictor.
func (p *MeanPredictor) Predict(taskName string, _, speedFactor float64) (float64, bool) {
	m := p.m.get(taskName)
	if m.n == 0 {
		return 0, false
	}
	if speedFactor <= 0 {
		speedFactor = 1
	}
	return m.sum / float64(m.n) / speedFactor, true
}

// RegressionPredictor fits, per task name, an online simple linear
// regression runtime = a + b·inputBytes on reference-normalized runtimes —
// the "number of file inputs, input sizes" features §3.4 names.
type RegressionPredictor struct {
	m models[olsModel]
}

type olsModel struct {
	n                      float64
	sumX, sumY, sumXY, sXX float64
}

func (m *olsModel) observe(x, y float64) {
	m.n++
	m.sumX += x
	m.sumY += y
	m.sumXY += x * y
	m.sXX += x * x
}

func (m *olsModel) predict(x float64) (float64, bool) {
	if m.n == 0 {
		return 0, false
	}
	meanY := m.sumY / m.n
	if m.n < 2 {
		return meanY, true
	}
	// den = n·Σx² − (Σx)² is mathematically ≥ 0, and 0 exactly when every
	// input size is identical. With large identical inputs (say x = 1e9,
	// n = 3) the true zero drowns in float64 rounding of ~1e18-magnitude
	// sums, so an absolute threshold passes garbage through to the slope.
	// Compare against the terms' own magnitude instead: degenerate variance
	// is den vanishing *relative to* n·Σx².
	den := m.n*m.sXX - m.sumX*m.sumX
	if den <= 1e-9*m.n*m.sXX {
		return meanY, true // all inputs (effectively) identical: fall back to mean
	}
	b := (m.n*m.sumXY - m.sumX*m.sumY) / den
	a := meanY - b*m.sumX/m.n
	y := a + b*x
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return meanY, true
	}
	if y < 0 {
		y = 0
	}
	return y, true
}

// NewRegression returns an empty regression predictor.
func NewRegression() *RegressionPredictor { return &RegressionPredictor{} }

// Observe implements RuntimePredictor.
func (p *RegressionPredictor) Observe(o Observation) {
	if !usable(o) {
		return
	}
	p.m.at(o.TaskName).observe(o.InputBytes, o.RuntimeSec*o.SpeedFactor)
}

// Samples implements Sampler.
func (p *RegressionPredictor) Samples(taskName string) int { return int(p.m.get(taskName).n) }

// Predict implements RuntimePredictor.
func (p *RegressionPredictor) Predict(taskName string, inputBytes, speedFactor float64) (float64, bool) {
	m := p.m.get(taskName)
	y, ok := m.predict(inputBytes)
	if !ok {
		return 0, false
	}
	if speedFactor <= 0 {
		speedFactor = 1
	}
	return y / speedFactor, true
}

// LotaruPredictor mirrors Lotaru's idea (§3.4, [18]): derive a task's
// bytes-per-second processing rate on the reference machine from observed
// executions, then extrapolate to any input size on any machine via its
// speed factor, so one run of a task on one machine type predicts its runs
// on the others.
type LotaruPredictor struct {
	m models[lotaruModel]
}

type lotaruModel struct {
	rate   float64 // bytes/sec on reference machine
	weight float64
}

// NewLotaru returns an empty Lotaru-style predictor.
func NewLotaru() *LotaruPredictor { return &LotaruPredictor{} }

// Observe implements RuntimePredictor, folding the observation's rate on
// the reference machine into the running mean. A rate needs strictly
// positive runtime and input size on top of the shared validity rule.
func (p *LotaruPredictor) Observe(o Observation) {
	if !usable(o) || o.RuntimeSec <= 0 || o.InputBytes <= 0 {
		return
	}
	m := p.m.at(o.TaskName)
	total := m.weight + 1
	m.rate = (m.rate*m.weight + o.InputBytes/(o.RuntimeSec*o.SpeedFactor)) / total
	m.weight = total
}

// Samples implements Sampler: the number of observations folded.
func (p *LotaruPredictor) Samples(taskName string) int { return int(p.m.get(taskName).weight) }

// Predict implements RuntimePredictor.
func (p *LotaruPredictor) Predict(taskName string, inputBytes, speedFactor float64) (float64, bool) {
	rate := p.m.get(taskName).rate
	if rate <= 0 {
		return 0, false
	}
	if speedFactor <= 0 {
		speedFactor = 1
	}
	return inputBytes / (rate * speedFactor), true
}

// MemPredictor estimates peak memory per task name as max-so-far plus a
// safety margin — the conservative policy real WMSs use to avoid OOM kills.
type MemPredictor struct {
	m      models[memModel]
	Margin float64 // fractional head-room, e.g. 0.2 = +20 %
}

type memModel struct {
	peak float64
	n    int
}

// NewMem returns a memory predictor with the given safety margin.
func NewMem(margin float64) *MemPredictor { return &MemPredictor{Margin: margin} }

// Observe folds a completed execution. Only the peak-memory field is read
// (memory does not scale with machine speed, so a zero SpeedFactor is fine
// here); non-finite or non-positive peaks are rejected.
func (p *MemPredictor) Observe(o Observation) {
	if math.IsNaN(o.PeakMem) || math.IsInf(o.PeakMem, 0) || o.PeakMem <= 0 {
		return
	}
	m := p.m.at(o.TaskName)
	m.n++
	if o.PeakMem > m.peak {
		m.peak = o.PeakMem
	}
}

// Samples implements Sampler.
func (p *MemPredictor) Samples(taskName string) int { return p.m.get(taskName).n }

// Predict returns the padded peak, or ok=false before any observation.
func (p *MemPredictor) Predict(taskName string) (float64, bool) {
	m := p.m.get(taskName)
	if m.n == 0 {
		return 0, false
	}
	return m.peak * (1 + p.Margin), true
}

// ByName maps a CLI/config predictor name to a constructor. "off" and ""
// select no predictor (nil constructor, nil error) — the caller's signal to
// keep the historical unpredicted path bit-for-bit.
func ByName(name string) (func() RuntimePredictor, error) {
	switch name {
	case "", "off":
		return nil, nil
	case "mean":
		return func() RuntimePredictor { return NewMean() }, nil
	case "regression":
		return func() RuntimePredictor { return NewRegression() }, nil
	case "lotaru":
		return func() RuntimePredictor { return NewLotaru() }, nil
	default:
		return nil, fmt.Errorf("predict: unknown predictor %q (want off, mean, regression, or lotaru)", name)
	}
}

// Errors quantifies predictor accuracy for the ablation benches.
type Errors struct {
	N   int
	mae float64 // sum of |err|
	mre float64 // sum of |err|/actual
}

// Observe folds one (predicted, actual) pair.
func (e *Errors) Observe(predicted, actual float64) {
	e.N++
	d := math.Abs(predicted - actual)
	e.mae += d
	if actual > 0 {
		e.mre += d / actual
	}
}

// MAE returns mean absolute error.
func (e *Errors) MAE() float64 {
	if e.N == 0 {
		return 0
	}
	return e.mae / float64(e.N)
}

// MRE returns mean relative error.
func (e *Errors) MRE() float64 {
	if e.N == 0 {
		return 0
	}
	return e.mre / float64(e.N)
}
