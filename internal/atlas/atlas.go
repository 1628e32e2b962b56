// Package atlas implements the Transcriptomics Atlas Salmon pipeline of §5:
// prefetch → fasterq-dump → salmon → DESeq2, executed per SRA run either on
// cloud instances (one EC2 instance per SRR, auto-scaled, Fig 7) or on an
// HPC cluster in Apptainer containers.
//
// The bioinformatics tools are replaced by calibrated step models: per-step
// durations scale with input size and are calibrated to Table 2's cloud/HPC
// mean/max execution times; per-step resource profiles (CPU %, CPU iowait %,
// memory) are calibrated to Table 1. The paper's qualitative asymmetries are
// structural: prefetch is much faster on AWS (S3-internal download vs the
// public Internet), compute steps are somewhat faster on the HPC cluster's
// CPUs, and DESeq2 is too short to differ.
package atlas

import (
	"fmt"

	"hhcw/internal/metrics"
	"hhcw/internal/randx"
	"hhcw/internal/storage"
)

// SRARun is one sequencing run to process.
type SRARun struct {
	Accession string
	Bytes     float64
	// Tissue labels the run for atlas assembly ("" until labelled; see
	// GenerateTissueCatalog).
	Tissue string
}

// MeanSRABytes is the catalog's mean .sra size. The paper's 20-tissue atlas
// is 8.6 TB over hundreds of thousands of runs; the 99-file evaluation set
// uses a few-GB scale.
const MeanSRABytes = 2.5e9

// GenerateCatalog returns n synthetic SRA runs with a lognormal size
// distribution (cv 0.8 — sequencing runs are heavy-tailed).
func GenerateCatalog(rng *randx.Source, n int) []SRARun {
	out := make([]SRARun, n)
	for i := range out {
		out[i] = SRARun{
			Accession: fmt.Sprintf("SRR%07d", 1000000+i),
			Bytes:     rng.LogNormalMeanCV(MeanSRABytes, 0.8),
		}
	}
	return out
}

// Step identifies a pipeline step.
type Step int

// Pipeline steps in execution order.
const (
	Prefetch Step = iota
	FasterqDump
	Salmon
	DESeq2
	numSteps
)

// String returns the tool name.
func (s Step) String() string {
	switch s {
	case Prefetch:
		return "prefetch"
	case FasterqDump:
		return "fasterq-dump"
	case Salmon:
		return "salmon"
	case DESeq2:
		return "deseq2"
	default:
		return fmt.Sprintf("step%d", int(s))
	}
}

// Steps lists the pipeline steps in order.
func Steps() []Step { return []Step{Prefetch, FasterqDump, Salmon, DESeq2} }

// profile calibrates one step: durations at the mean file size per
// environment, duration noise, and Table 1 resource distributions.
type profile struct {
	cloudMeanSec float64 // Table 2 cloud mean
	hpcMeanSec   float64 // Table 2 HPC mean
	durCV        float64 // per-execution noise on top of size scaling
	sizeScaled   bool    // duration scales with input size

	cpuMean, cpuSD       float64 // % of instance, truncated to [0,100]
	iowaitMean, iowaitSD float64
	memMean, memCV       float64 // bytes, lognormal
}

// profiles holds the calibration. Duration means are Table 2's; resource
// distributions reproduce Table 1's mean/max pairs over ~99 executions.
var profiles = [numSteps]profile{
	Prefetch: {
		cloudMeanSec: 36, hpcMeanSec: 126, durCV: 0.35, sizeScaled: true,
		cpuMean: 21, cpuSD: 14, iowaitMean: 3.7, iowaitSD: 9, memMean: 323e6, memCV: 0.07,
	},
	FasterqDump: {
		cloudMeanSec: 84, hpcMeanSec: 48, durCV: 0.30, sizeScaled: true,
		cpuMean: 56, cpuSD: 12, iowaitMean: 26, iowaitSD: 16, memMean: 394e6, memCV: 0.18,
	},
	Salmon: {
		cloudMeanSec: 576, hpcMeanSec: 480, durCV: 0.30, sizeScaled: true,
		cpuMean: 94, cpuSD: 3, iowaitMean: 1.5, iowaitSD: 6, memMean: 840e6, memCV: 0.45,
	},
	DESeq2: {
		cloudMeanSec: 11, hpcMeanSec: 10, durCV: 0.25, sizeScaled: false,
		cpuMean: 39, cpuSD: 6, iowaitMean: 3.4, iowaitSD: 9, memMean: 532e6, memCV: 0.22,
	},
}

// Environment selects the calibration column.
type Environment int

// Execution environments.
const (
	Cloud Environment = iota
	HPC
)

func (e Environment) String() string {
	if e == Cloud {
		return "cloud"
	}
	return "hpc"
}

// StepExecution is one step's sampled behaviour for one file.
type StepExecution struct {
	Step        Step
	DurationSec float64
	Sample      metrics.ProcSample
}

// SampleStep draws one execution of a step in an environment for a run of
// the given size. speedFactor scales compute time (node/instance speed).
func SampleStep(rng *randx.Source, env Environment, step Step, run SRARun, speedFactor float64) StepExecution {
	p := profiles[step]
	mean := p.cloudMeanSec
	if env == HPC {
		mean = p.hpcMeanSec
	}
	scale := 1.0
	if p.sizeScaled && run.Bytes > 0 {
		scale = run.Bytes / MeanSRABytes
	}
	if speedFactor <= 0 {
		speedFactor = 1
	}
	dur := rng.LogNormalMeanCV(mean*scale, p.durCV) / speedFactor
	if dur < 1 {
		dur = 1
	}
	return StepExecution{
		Step:        step,
		DurationSec: dur,
		Sample: metrics.ProcSample{
			CPUPct:    rng.TruncNormal(p.cpuMean, p.cpuSD, 0, 100),
			IOWaitPct: rng.TruncNormal(p.iowaitMean, p.iowaitSD, 0, 100),
			RSSBytes:  rng.LogNormalMeanCV(p.memMean, p.memCV),
		},
	}
}

// StepResult aggregates one step over an experiment — the row shapes of
// Tables 1 and 2.
type StepResult struct {
	Step Step
	Dur  metrics.Agg       // seconds
	Proc metrics.ProcStats // CPU/iowait/mem samples
}

// Report is one environment's experiment outcome.
type Report struct {
	Env       Environment
	Files     int
	Makespan  float64 // seconds, submission of first to completion of last
	StepStats [numSteps]StepResult
	// Efficiency is busy-CPU over allocated-CPU for the whole run (the
	// "reported job efficiency ... about 72%" for HPC).
	Efficiency float64
	// CostUSD is the instance cost (cloud only).
	CostUSD float64
	// Outputs is the store holding per-run results (cloud runs: the S3
	// bucket), usable for atlas assembly.
	Outputs *storage.Store
}

// observe folds a step execution into the report.
func (r *Report) observe(ex StepExecution) {
	st := &r.StepStats[ex.Step]
	st.Step = ex.Step
	st.Proc.Step = ex.Step.String()
	st.Dur.Observe(ex.DurationSec)
	st.Proc.Observe(ex.Sample)
}

// PipelineSeconds returns the summed mean per-file pipeline latency.
func (r *Report) PipelineSeconds() float64 {
	total := 0.0
	for _, st := range r.StepStats {
		total += st.Dur.Mean()
	}
	return total
}
