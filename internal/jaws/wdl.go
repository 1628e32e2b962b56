// Package jaws implements a JAWS-like centralized workflow service (§6): a
// mini workflow description language (standing in for WDL), a Cromwell-like
// engine with scatter shards, call caching and per-user fair-share limits, a
// multi-site dispatch layer with Globus-like staging, a task-fusion
// optimizer, and a migration linter encoding the paper's patterns and
// anti-patterns.
package jaws

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// TaskDef is one task in a workflow description.
type TaskDef struct {
	Name     string
	Cores    int
	MemBytes float64
	// DurationSec is the per-shard payload runtime on the reference
	// machine.
	DurationSec float64
	// OverheadSec is the fixed per-execution cost: container start, input
	// localization, filesystem staging. This is what task fusion
	// eliminates (§6.1) and what makes over-sharding expensive (§6.2).
	OverheadSec float64
	// Scatter > 1 expands the task into that many parallel shards
	// (Cromwell's WDL scatter).
	Scatter int
	// After lists tasks whose outputs this task consumes.
	After []string
	// Container is the image reference; pinned digests ("@sha256:...")
	// satisfy the version-control pattern.
	Container string
}

// Shards returns the execution fan-out (>= 1).
func (t *TaskDef) Shards() int {
	if t.Scatter > 1 {
		return t.Scatter
	}
	return 1
}

// WorkflowDef is a parsed workflow description. A struct literal is as good
// as a parsed one: Validate (and with it Compile, Expand and the engine)
// indexes its tasks by name the first time it sees them. Share a literal
// across goroutines only once it has been validated; from then on every
// method only reads it.
type WorkflowDef struct {
	Name  string
	Tasks []*TaskDef

	byName map[string]*TaskDef
}

// Task returns a task by name, or nil.
func (w *WorkflowDef) Task(name string) *TaskDef { return w.byName[name] }

// TotalShards returns the total execution count of one uncached run.
func (w *WorkflowDef) TotalShards() int {
	n := 0
	for _, t := range w.Tasks {
		n += t.Shards()
	}
	return n
}

// Validate checks name uniqueness, dependency existence and acyclicity.
func (w *WorkflowDef) Validate() error {
	_, _, err := w.order()
	return err
}

// order validates the def and returns its tasks in Kahn order, with each
// task name's position in that order: roots in declaration order, then
// every task once its last dependency has been dequeued, the dependents of
// one task visited in declaration order. Compile adds tasks, and the
// streaming expander emits them, in this order. order also builds the name
// index Task and Signature read, unless it is already current.
func (w *WorkflowDef) order() ([]*TaskDef, map[string]int, error) {
	if w.Name == "" {
		return nil, nil, fmt.Errorf("jaws: workflow without a name")
	}
	pos := make(map[string]int, len(w.Tasks)) // declaration position, then Kahn position
	indexed := len(w.byName) == len(w.Tasks)
	for i, t := range w.Tasks {
		if t.Name == "" {
			return nil, nil, fmt.Errorf("jaws: task without a name in %q", w.Name)
		}
		if _, dup := pos[t.Name]; dup {
			return nil, nil, fmt.Errorf("jaws: duplicate task %q", t.Name)
		}
		pos[t.Name] = i
		// "/" is the shard-ID separator: a task literally named "x/shard0001"
		// would collide with shard 1 of a scattered task "x" at compile time.
		if strings.Contains(t.Name, "/") {
			return nil, nil, fmt.Errorf("jaws: task name %q contains %q (reserved for shard IDs)", t.Name, "/")
		}
		for _, f := range [...]struct {
			field, attr string
			v           float64
		}{{"MemBytes", "mem", t.MemBytes}, {"DurationSec", "dur", t.DurationSec}, {"OverheadSec", "overhead", t.OverheadSec}} {
			// A NaN or infinite value would poison the node ledgers and the
			// clock downstream; !(v >= 0) also catches NaN.
			if !(f.v >= 0) || math.IsInf(f.v, 1) {
				return nil, nil, fmt.Errorf("jaws: task %q: %s (%s=%v) must be finite and >= 0", t.Name, f.field, f.attr, f.v)
			}
		}
		indexed = indexed && w.byName[t.Name] == t
	}
	indeg := make([]int, len(w.Tasks))
	children := make([][]int, len(w.Tasks))
	for i, t := range w.Tasks {
		for _, d := range t.After {
			j, ok := pos[d]
			if !ok {
				return nil, nil, fmt.Errorf("jaws: task %q depends on unknown task %q", t.Name, d)
			}
			indeg[i]++
			children[j] = append(children[j], i)
		}
	}
	queue := make([]int, 0, len(w.Tasks))
	for i := range w.Tasks {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for k := 0; k < len(queue); k++ {
		for _, c := range children[queue[k]] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(queue) != len(w.Tasks) {
		return nil, nil, fmt.Errorf("jaws: workflow %q contains a cycle", w.Name)
	}
	order := make([]*TaskDef, len(queue))
	for k, i := range queue {
		order[k] = w.Tasks[i]
		pos[order[k].Name] = k
	}
	if !indexed {
		w.byName = make(map[string]*TaskDef, len(w.Tasks))
		for _, t := range w.Tasks {
			w.byName[t.Name] = t
		}
	}
	return order, pos, nil
}

// Parse reads the mini-WDL text format:
//
//	workflow <name>
//	container <default-image>            # optional
//	task <name> cpu=2 mem=4G dur=300s overhead=60s [after=a,b] [scatter=24] [container=img]
//
// Lines starting with # are comments. Durations accept s/m/h suffixes; memory
// accepts K/M/G suffixes.
func Parse(text string) (*WorkflowDef, error) {
	w := &WorkflowDef{}
	defaultContainer := ""
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "workflow":
			if len(fields) != 2 {
				return nil, fmt.Errorf("jaws: line %d: workflow needs a name", lineNo+1)
			}
			w.Name = fields[1]
		case "container":
			if len(fields) != 2 {
				return nil, fmt.Errorf("jaws: line %d: container needs an image", lineNo+1)
			}
			defaultContainer = fields[1]
		case "task":
			if len(fields) < 2 {
				return nil, fmt.Errorf("jaws: line %d: task needs a name", lineNo+1)
			}
			t := &TaskDef{Name: fields[1], Cores: 1, Container: defaultContainer}
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("jaws: line %d: malformed attribute %q", lineNo+1, kv)
				}
				var err error
				switch k {
				case "cpu":
					t.Cores, err = strconv.Atoi(v)
				case "mem":
					t.MemBytes, err = parseBytes(v)
				case "dur":
					t.DurationSec, err = parseSeconds(v)
				case "overhead":
					t.OverheadSec, err = parseSeconds(v)
				case "scatter":
					t.Scatter, err = strconv.Atoi(v)
				case "after":
					t.After = strings.Split(v, ",")
				case "container":
					t.Container = v
				default:
					err = fmt.Errorf("unknown attribute %q", k)
				}
				if err != nil {
					return nil, fmt.Errorf("jaws: line %d: %s: %v", lineNo+1, kv, err)
				}
			}
			w.Tasks = append(w.Tasks, t)
		default:
			return nil, fmt.Errorf("jaws: line %d: unknown directive %q", lineNo+1, fields[0])
		}
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

func parseSeconds(v string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(v, "h"):
		mult, v = 3600, strings.TrimSuffix(v, "h")
	case strings.HasSuffix(v, "m"):
		mult, v = 60, strings.TrimSuffix(v, "m")
	case strings.HasSuffix(v, "s"):
		v = strings.TrimSuffix(v, "s")
	}
	f, err := strconv.ParseFloat(v, 64)
	return f * mult, err
}

func parseBytes(v string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(v, "T"):
		mult, v = 1e12, strings.TrimSuffix(v, "T")
	case strings.HasSuffix(v, "G"):
		mult, v = 1e9, strings.TrimSuffix(v, "G")
	case strings.HasSuffix(v, "M"):
		mult, v = 1e6, strings.TrimSuffix(v, "M")
	case strings.HasSuffix(v, "K"):
		mult, v = 1e3, strings.TrimSuffix(v, "K")
	}
	f, err := strconv.ParseFloat(v, 64)
	return f * mult, err
}

// Signature returns the call-cache key for a shard: task identity, container
// version, shape, and its upstream signatures — so any upstream change
// invalidates downstream cache entries, as Cromwell's call caching does.
func (w *WorkflowDef) Signature(t *TaskDef, shard int) string {
	parts := []string{
		t.Name, t.Container,
		strconv.Itoa(t.Cores),
		strconv.FormatFloat(t.DurationSec, 'g', -1, 64),
		strconv.Itoa(shard),
	}
	deps := append([]string(nil), t.After...)
	sort.Strings(deps)
	for _, d := range deps {
		if dt := w.Task(d); dt != nil {
			parts = append(parts, w.Signature(dt, -1))
		}
	}
	return strings.Join(parts, "|")
}
