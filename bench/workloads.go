// Package bench is the wall-clock end-to-end benchmark of hhcw. It drives
// four workloads only through the entry points users call — sweep.Run,
// service.Sweep, and jaws.Parse → Expand → rm.StreamRunner — each in a fresh
// child process, checks their outputs, and, in a separate traced run,
// attributes the cost to layers from outside the program: forwarding
// wrappers around the interfaces a workload hands to each layer, and a CPU
// profile attributed to modules.
package bench

import (
	"fmt"
	"math"
	"time"

	"hhcw/internal/cluster"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/jaws"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/service"
	"hhcw/internal/sim"
	"hhcw/internal/sweep"
)

// Block is the outcome of one block of a workload.
type Block struct {
	Units  int // runs executed: ensemble sims, service runs, or stream runs
	Tasks  int // tasks executed by those runs
	Failed int // units whose outputs broke an invariant
	// Lat holds one latency per latency unit: a sim, a service seed (its
	// eight service runs), or a whole stream run.
	Lat         []time.Duration
	Fingerprint string // the block's outputs, as the entry point digests them
}

// blockFunc runs block b of a workload; block 0 is the warm-up block.
type blockFunc func(b int) (Block, error)

// Workload is one named input set of the benchmark. BENCHMARK.json and
// README.md say why each was chosen.
type Workload struct {
	Name string
	// BlockSeeds is the number of seeds in one ensemble or service block;
	// block b covers seeds [seed+b·BlockSeeds, seed+(b+1)·BlockSeeds).
	BlockSeeds int
	// Shards is the scatter width of the stream workload.
	Shards int
	// TraceBlocks is the fixed number of timed blocks in a traced run, so
	// its counts repeat exactly.
	TraceBlocks int
	// Recheck reruns the warm-up block after the timed blocks and requires
	// the same fingerprint; the stream workload checks exact outputs instead.
	Recheck bool
	build   func(w Workload, seed int64, tr *Tracer) blockFunc
}

// Workloads returns the benchmark's workloads in run order.
func Workloads() []Workload {
	return []Workload{
		{
			Name:        "ensemble",
			BlockSeeds:  200,
			TraceBlocks: 8,
			Recheck:     true,
			build: func(w Workload, seed int64, tr *Tracer) blockFunc {
				return sweepBlocks(families(tr), ensembleEnvs(fault.Profile{}, tr), w.BlockSeeds, seed)
			},
		},
		{
			Name:        "ensemble-storm",
			BlockSeeds:  200,
			TraceBlocks: 8,
			Recheck:     true,
			build: func(w Workload, seed int64, tr *Tracer) blockFunc {
				return sweepBlocks(families(tr), ensembleEnvs(fault.Storm(), tr), w.BlockSeeds, seed)
			},
		},
		{
			Name: "service",
			// Short blocks keep the gauges around a block close in time to
			// it: this workload slows the most when the host is loaded.
			BlockSeeds:  10,
			TraceBlocks: 20,
			Recheck:     true,
			build: func(w Workload, seed int64, tr *Tracer) blockFunc {
				return serviceBlocks(w.BlockSeeds, seed, tr)
			},
		},
		{
			Name:        "stream-1m",
			Shards:      1_000_000,
			TraceBlocks: 2,
			build: func(w Workload, _ int64, tr *Tracer) blockFunc {
				return streamBlocks(w.Shards, tr)
			},
		},
	}
}

// Lookup returns the workload with the given name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Tiny returns the workload cut to a size the tests run in well under a
// second: two seeds per block and a 10^4-shard scatter.
func (w Workload) Tiny() Workload {
	if w.BlockSeeds > 0 {
		w.BlockSeeds = 2
	}
	if w.Shards > 0 {
		w.Shards = 10_000
	}
	return w
}

// families are the four workflow families of the ensemble workloads.
func families(tr *Tracer) []sweep.WorkflowSpec {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	fams := []sweep.WorkflowSpec{
		{Name: "montage-16", Gen: func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 16, opts) }},
		{Name: "epigenomics-6x5", Gen: func(r *randx.Source) *dag.Workflow { return dag.EpigenomicsLike(r, 6, 5, opts) }},
		{Name: "forkjoin-3x12", Gen: func(r *randx.Source) *dag.Workflow { return dag.ForkJoin(r, 3, 12, opts) }},
		{Name: "rnaseq-12", Gen: func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 12, opts) }},
	}
	for i := range fams {
		fams[i].Gen = tr.gen(fams[i].Gen)
	}
	return fams
}

// ensembleEnvs are the environments of the ensemble workloads: FIFO and
// CWS-rank on 4×8 cores, plus the Lotaru prediction loop on a heterogeneous
// cluster when the run is fault-free.
func ensembleEnvs(faults fault.Profile, tr *Tracer) []sweep.EnvSpec {
	type envDef struct {
		name string
		env  func() *core.KubernetesEnv
	}
	defs := []envDef{
		{"fifo", func() *core.KubernetesEnv {
			return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Faults: faults}
		}},
		{"cws-rank", func() *core.KubernetesEnv {
			return &core.KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: tr.strategy(cwsi.Rank{}), Faults: faults}
		}},
	}
	if !faults.Enabled() {
		defs = append(defs, envDef{"lotaru", func() *core.KubernetesEnv {
			return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: tr.strategy(cwsi.Baseline{}), Predict: "lotaru"}
		}})
	}
	specs := make([]sweep.EnvSpec, len(defs))
	for i, d := range defs {
		specs[i] = sweep.EnvSpec{
			Name:       d.name,
			New:        func() core.Environment { return d.env() },
			NewSession: tr.session(d.env),
		}
	}
	return specs
}

// sweepBlocks runs each block as one sweep.Run on one worker. A sim's
// latency is the time between successive Progress callbacks.
func sweepBlocks(fams []sweep.WorkflowSpec, envs []sweep.EnvSpec, perBlock int, seed int64) blockFunc {
	return func(b int) (Block, error) {
		blk := Block{Lat: make([]time.Duration, 0, len(fams)*len(envs)*perBlock)}
		cfg := sweep.Config{
			Workflows: fams,
			Envs:      envs,
			Seeds:     sweep.Seeds(seed+int64(b*perBlock), perBlock),
			Workers:   1,
		}
		last := time.Now()
		cfg.Progress = func(int, int) {
			now := time.Now()
			blk.Lat = append(blk.Lat, now.Sub(last))
			last = now
		}
		rep, err := sweep.Run(cfg)
		if err != nil {
			return Block{}, err
		}
		blk.Units = len(rep.Runs)
		for i := range rep.Runs {
			blk.Tasks += rep.Runs[i].Result.TasksRun
			if !validSim(&cfg, i, &rep.Runs[i]) {
				blk.Failed++
			}
		}
		blk.Fingerprint = rep.Fingerprint()
		return blk, nil
	}
}

// validSim checks one sweep result: it sits at its (workflow, env, seed)
// position in the report, ran tasks, and has a positive makespan and a
// utilization in (0, 1].
func validSim(cfg *sweep.Config, i int, r *sweep.RunResult) bool {
	nSeeds := len(cfg.Seeds)
	perWf := len(cfg.Envs) * nSeeds
	ms, util := r.Result.MakespanSec, r.Result.UtilizationCore
	return r.Workflow == cfg.Workflows[i/perWf].Name &&
		r.Env == cfg.Envs[i%perWf/nSeeds].Name &&
		r.Seed == cfg.Seeds[i%nSeeds] &&
		r.Result.TasksRun > 0 &&
		ms > 0 && !math.IsInf(ms, 0) &&
		util > 0 && util <= 1+1e-9
}

// serviceScenario is the contended three-tenant scenario with the heavy
// tenant's admission budget tightened so defer and reject both happen.
func serviceScenario(tr *Tracer) func(fairShare bool) service.Config {
	return func(fairShare bool) service.Config {
		cfg := service.ContendedScenario(fairShare)
		cfg.Tenants[0].MaxInFlight = 6
		cfg.Tenants[0].MaxDeferred = 4
		for i := range cfg.Tenants {
			cfg.Tenants[i].Workload = tr.workload(cfg.Tenants[i].Workload)
		}
		return cfg
	}
}

// serviceBlocks runs each block as one service.Sweep on one worker. A
// seed's latency (FIFO and fair share, each with its solo baselines) is the
// time between successive Progress callbacks.
func serviceBlocks(perBlock int, seed int64, tr *Tracer) blockFunc {
	scen := serviceScenario(tr)
	return func(b int) (Block, error) {
		blk := Block{Lat: make([]time.Duration, 0, perBlock)}
		cfg := service.SweepConfig{
			Scenario: scen,
			Seeds:    perBlock,
			Seed0:    seed + int64(b*perBlock),
			Workers:  1,
		}
		start := time.Now()
		last := start
		cfg.Progress = func(int, int) {
			now := time.Now()
			blk.Lat = append(blk.Lat, now.Sub(last))
			last = now
		}
		sw, err := service.Sweep(cfg)
		tr.end(layerService, start)
		if err != nil {
			return Block{}, err
		}
		for _, r := range sw.Runs {
			// A contended run plus one solo baseline per tenant.
			runs := 1 + len(r.Tenants)
			blk.Units += runs
			ok := r.Utilization > 0 && r.Utilization <= 1+1e-9
			for _, t := range r.Tenants {
				blk.Tasks += t.TasksStarted
				ok = ok && t.Arrivals == t.Admitted+t.Rejected && t.Completed == t.Admitted && t.WfFailed == 0
			}
			if !ok {
				blk.Failed += runs
			}
		}
		tr.serviceRuns(sw.Runs)
		blk.Fingerprint = sw.Fingerprint
		return blk, nil
	}
}

// streamWDL is the ScheduleMillionTask workflow: a prep task, an n-shard
// scatter and a gather.
func streamWDL(shards int) string {
	return fmt.Sprintf(`
workflow millionscatter
task prep cpu=1 dur=10s
task work cpu=1 dur=60s scatter=%d after=prep
task gather cpu=1 dur=10s after=work
`, shards)
}

const (
	streamNodes     = 128
	streamCores     = 8
	streamResident  = 2048
	streamStageSecs = 10 // prep and gather durations
	streamShardSecs = 60
)

// streamBlocks runs one streamed scatter per block; the seed is unused.
// Each run must reproduce the closed-form outputs: the scatter runs in
// ceil(shards/1024) waves of 60 s between a 10 s prep and a 10 s gather,
// every task completes, and residency peaks at the window.
func streamBlocks(shards int, tr *Tracer) blockFunc {
	wdl := streamWDL(shards)
	cores := streamNodes * streamCores
	waves := (shards + cores - 1) / cores
	wantMakespan := float64(2*streamStageSecs + waves*streamShardSecs)
	wantPeak := min(streamResident, shards)
	return func(int) (blk Block, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("stream run: %v", p)
			}
		}()
		start := time.Now()
		def, err := jaws.Parse(wdl)
		if err != nil {
			return Block{}, err
		}
		x, err := def.Expand()
		if err != nil {
			return Block{}, err
		}
		eng := sim.NewEngine()
		cl := cluster.New(eng, "site", cluster.Spec{
			Type:  cluster.NodeType{Name: "node", Cores: streamCores, MemBytes: 64e9},
			Count: streamNodes,
		})
		cl.FoldMetrics()
		m := rm.NewTaskManager(cl, tr.rmStrategy())
		m.SetLean()
		sr := &rm.StreamRunner{
			Manager:     m,
			Source:      tr.expander(x),
			WorkflowID:  def.Name,
			MaxResident: streamResident,
		}
		makespan := float64(sr.Run())
		blk.Lat = []time.Duration{time.Since(start)}
		completed, failed, peak := m.Completed(), m.Failed(), sr.PeakResident()
		tr.events(eng.Fired())
		blk.Units, blk.Tasks = 1, completed
		if makespan != wantMakespan || completed != shards+2 || failed != 0 || peak != wantPeak {
			blk.Failed = 1
		}
		blk.Fingerprint = fmt.Sprintf("%016x/%d/%d/%d", math.Float64bits(makespan), completed, failed, peak)
		return blk, nil
	}
}
