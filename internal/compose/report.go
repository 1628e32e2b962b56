package compose

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"hhcw/internal/atlas"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/entk"
	"hhcw/internal/jaws"
	"hhcw/internal/llmwf"
)

// Schema identifies the machine-readable report format emitted by every
// cmd/ binary under -json. See docs/report-schema.md.
const Schema = "hhcw-report/v1"

// Report is the one result type every cmd/ binary renders, machine- or
// human-readable. Execution outcomes — whatever subsystem produced them —
// are normalized into RunSummary rows built on core.Result's fields;
// free-form experiment tables go into Sections verbatim.
type Report struct {
	Schema string `json:"schema"`
	App    string `json:"app"`
	Seed   int64  `json:"seed"`
	Faults string `json:"faults,omitempty"`

	// Workflow describes the (composed) DAG when the app ran exactly one.
	Workflow *WorkflowInfo `json:"workflow,omitempty"`

	// Runs are the normalized execution outcomes, in a fixed order.
	Runs []RunSummary `json:"runs,omitempty"`

	// Tenants carry per-tenant service-mode SLO aggregates (multi-tenant
	// apps only), in a fixed strategy-major order.
	Tenants []TenantSummary `json:"tenants,omitempty"`

	// Sections carry the human-readable experiment tables; under -json they
	// are included verbatim so nothing is lost either way.
	Sections []Section `json:"sections,omitempty"`
}

// WorkflowInfo describes a compiled DAG.
type WorkflowInfo struct {
	Name            string  `json:"name"`
	Tasks           int     `json:"tasks"`
	Edges           int     `json:"edges"`
	CriticalPathSec float64 `json:"critical_path_sec"`
}

// DescribeWorkflow summarizes a compiled DAG for a report header.
func DescribeWorkflow(w *dag.Workflow) *WorkflowInfo {
	cp, _ := w.CriticalPath(dag.NominalDur)
	return &WorkflowInfo{Name: w.Name, Tasks: w.Len(), Edges: w.EdgeCount(), CriticalPathSec: cp}
}

// RunSummary is one normalized execution outcome. Its deterministic fields
// mirror core.Result; subsystem-specific figures land in Extra.
type RunSummary struct {
	Name      string `json:"name"`
	Subsystem string `json:"subsystem"`

	Environment string `json:"environment,omitempty"`
	Workflow    string `json:"workflow,omitempty"`

	Tasks            int     `json:"tasks"`
	MakespanSec      float64 `json:"makespan_sec"`
	UtilizationCore  float64 `json:"utilization_core,omitempty"`
	FailedAttempts   int     `json:"failed_attempts,omitempty"`
	Retries          int     `json:"retries,omitempty"`
	TerminalFailures int     `json:"terminal_failures,omitempty"`
	BackoffSec       float64 `json:"backoff_sec,omitempty"`
	CostUSD          float64 `json:"cost_usd,omitempty"`

	// Extra holds subsystem-specific metrics (sorted keys under JSON).
	Extra map[string]float64 `json:"extra,omitempty"`

	// Fingerprint encodes the summary's deterministic fields bit-exactly;
	// for core results it is core.Result.Fingerprint verbatim.
	Fingerprint string `json:"fingerprint"`
}

// fingerprintOf digests a summary's deterministic fields the same way
// core.Result.Fingerprint does: IEEE-754 bits, never formatted decimals.
func fingerprintOf(s *RunSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%016x/%016x/%d/%d/%d/%d/%016x",
		s.Subsystem, s.Environment,
		math.Float64bits(s.MakespanSec), math.Float64bits(s.UtilizationCore),
		s.Tasks, s.FailedAttempts, s.Retries, s.TerminalFailures,
		math.Float64bits(s.BackoffSec))
	for _, k := range sortedKeys(s.Extra) {
		fmt.Fprintf(&b, "/%s=%016x", k, math.Float64bits(s.Extra[k]))
	}
	return b.String()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// FromResult normalizes a core environment execution.
func FromResult(name string, res *core.Result) RunSummary {
	s := RunSummary{
		Name:             name,
		Subsystem:        "core",
		Environment:      res.Environment,
		Tasks:            res.TasksRun,
		MakespanSec:      res.MakespanSec,
		UtilizationCore:  res.UtilizationCore,
		FailedAttempts:   res.FailedAttempts,
		Retries:          res.Retries,
		TerminalFailures: res.TerminalFailures,
		BackoffSec:       res.BackoffSec,
		Fingerprint:      res.Fingerprint(),
	}
	if res.PredSamples > 0 {
		s.Extra = map[string]float64{
			"pred_samples": float64(res.PredSamples),
			"pred_mae_sec": res.PredMAESec,
			"pred_mre_pct": res.PredMREPct,
		}
	}
	return s
}

// FromAtlas normalizes a Transcriptomics Atlas experiment (§5).
func FromAtlas(name string, r *atlas.Report) RunSummary {
	s := RunSummary{
		Name:            name,
		Subsystem:       "atlas",
		Environment:     r.Env.String(),
		Tasks:           r.Files,
		MakespanSec:     r.Makespan,
		UtilizationCore: r.Efficiency,
		CostUSD:         r.CostUSD,
		Extra:           map[string]float64{"pipeline_sec": r.PipelineSeconds()},
	}
	s.Fingerprint = fingerprintOf(&s)
	return s
}

// FromEnTK normalizes an EnTK application run (§4).
func FromEnTK(name string, r *entk.Report) RunSummary {
	s := RunSummary{
		Name:             name,
		Subsystem:        "entk",
		Environment:      "hpc-pilot",
		Tasks:            r.TasksExecuted,
		MakespanSec:      float64(r.JobRuntime),
		UtilizationCore:  r.Utilization,
		Retries:          r.ResubmittedOK,
		TerminalFailures: r.TasksFailed,
		Extra: map[string]float64{
			"overhead_sec": float64(r.Overhead),
			"ttx_sec":      float64(r.TTX),
			"rounds":       float64(r.Rounds),
			"sched_rate":   r.MeasuredSchedRate,
			"launch_rate":  r.MeasuredLaunchRate,
		},
	}
	s.Fingerprint = fingerprintOf(&s)
	return s
}

// FromJAWS normalizes a JAWS engine run (§6).
func FromJAWS(name string, r *jaws.RunReport) RunSummary {
	s := RunSummary{
		Name:        name,
		Subsystem:   "jaws",
		Environment: "jaws-site",
		Workflow:    r.Workflow,
		Tasks:       r.ShardsExecuted,
		MakespanSec: float64(r.Makespan),
		Extra: map[string]float64{
			"cache_hits": float64(r.CacheHits),
			"fs_ops":     float64(r.FilesystemOps),
			"task_sec":   r.TaskSeconds,
		},
	}
	s.Fingerprint = fingerprintOf(&s)
	return s
}

// FromCWSI normalizes a §3 WMS-adapter run.
func FromCWSI(name string, r cwsi.RunResult) RunSummary {
	s := RunSummary{
		Name:        name,
		Subsystem:   "cws",
		Environment: r.Engine + "/" + r.Strategy,
		MakespanSec: float64(r.Makespan),
		Extra: map[string]float64{
			"requested_core_sec": r.RequestedCoreSec,
			"used_core_sec":      r.UsedCoreSec,
			"waste":              r.Waste(),
		},
	}
	s.Fingerprint = fingerprintOf(&s)
	return s
}

// FromLLM normalizes a §2.1 function-calling run.
func FromLLM(name string, r *llmwf.RunStats) RunSummary {
	s := RunSummary{
		Name:        name,
		Subsystem:   "llm",
		Environment: "function-calling",
		Tasks:       r.Steps,
		MakespanSec: r.MakespanSec,
		Extra: map[string]float64{
			"requests":    float64(r.Requests),
			"sent_tokens": float64(r.SentTokens),
			"peak_tokens": float64(r.PeakRequestTokens),
		},
	}
	s.Fingerprint = fingerprintOf(&s)
	return s
}

// FromLLMAgents normalizes a §2.2 planner/executor/debugger run.
func FromLLMAgents(name string, r *llmwf.ExecReport) RunSummary {
	s := RunSummary{
		Name:           name,
		Subsystem:      "llm",
		Environment:    "agent-engine",
		Tasks:          r.Steps,
		MakespanSec:    r.MakespanSec,
		FailedAttempts: r.DebuggerInvoked,
		Retries:        r.Recovered,
		Extra: map[string]float64{
			"requests":          float64(r.Requests),
			"sent_tokens":       float64(r.SentTokens),
			"peak_tokens":       float64(r.PeakRequestTokens),
			"human_escalations": float64(r.HumanEscalations),
		},
	}
	s.Fingerprint = fingerprintOf(&s)
	return s
}

// TenantSummary is one tenant's service-mode SLO view under one scheduling
// strategy: queue-wait tail, makespan inflation against the tenant's solo
// baseline, and admission-control outcomes. Producers aggregate these over
// a seed ensemble before attaching them.
type TenantSummary struct {
	Strategy string  `json:"strategy"`
	Tenant   string  `json:"tenant"`
	Weight   float64 `json:"weight,omitempty"`

	P99WaitSec        float64 `json:"p99_wait_sec"`
	SoloP99WaitSec    float64 `json:"solo_p99_wait_sec,omitempty"`
	WaitInflationP99  float64 `json:"wait_inflation_p99,omitempty"`
	MeanMakespanSec   float64 `json:"mean_makespan_sec,omitempty"`
	MakespanInflation float64 `json:"makespan_inflation,omitempty"`
	RejectionRate     float64 `json:"rejection_rate"`
	Deferred          int     `json:"deferred,omitempty"`
	Rejected          int     `json:"rejected,omitempty"`
}

// AddTenant appends a per-tenant service-mode aggregate.
func (r *Report) AddTenant(t TenantSummary) { r.Tenants = append(r.Tenants, t) }

// Section is a titled block of preformatted report lines with optional
// machine-readable values.
type Section struct {
	Title  string             `json:"title,omitempty"`
	Lines  []string           `json:"lines,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
}

// NewReport starts a report for an app invocation.
func NewReport(app string, seed int64, faults string) *Report {
	if faults == "none" {
		faults = ""
	}
	return &Report{Schema: Schema, App: app, Seed: seed, Faults: faults}
}

// AddRun appends a normalized run.
func (r *Report) AddRun(s RunSummary) { r.Runs = append(r.Runs, s) }

// Section appends a titled section and returns it for line building.
func (r *Report) Section(title string) *Section {
	r.Sections = append(r.Sections, Section{Title: title})
	return &r.Sections[len(r.Sections)-1]
}

// Addf appends one formatted line.
func (s *Section) Addf(format string, args ...any) {
	s.Lines = append(s.Lines, fmt.Sprintf(format, args...))
}

// AddTable appends a pre-rendered multi-line block (e.g. a sweep table) as
// individual lines, dropping a trailing newline.
func (s *Section) AddTable(t string) {
	start := 0
	for i := 0; i < len(t); i++ {
		if t[i] == '\n' {
			s.Lines = append(s.Lines, t[start:i])
			start = i + 1
		}
	}
	if start < len(t) {
		s.Lines = append(s.Lines, t[start:])
	}
}

// Set records a machine-readable value alongside the lines.
func (s *Section) Set(k string, v float64) {
	if s.Values == nil {
		s.Values = map[string]float64{}
	}
	s.Values[k] = v
}

// Text renders the human-readable report: each section's title (when set)
// as a "== title ==" banner followed by its lines, sections separated by a
// blank line. The bytes are deterministic — they are part of each binary's
// reproducibility contract.
func (r *Report) Text() string {
	var b strings.Builder
	for i, s := range r.Sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		if s.Title != "" {
			fmt.Fprintf(&b, "== %s ==\n", s.Title)
		}
		for _, l := range s.Lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// JSON renders the machine-readable report (docs/report-schema.md).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("compose: marshal report: %w", err)
	}
	return append(b, '\n'), nil
}
