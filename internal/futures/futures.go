// Package futures implements a Parsl-style dataflow executor (§2.1): apps
// are submitted with dependencies on other apps' futures; an AppFuture
// resolves when its app finishes and exposes DataFutures — "promises of a
// file that will be generated by another running instance of a Parsl app".
//
// The registry assigns every AppFuture an ID and indexes it in a global
// dictionary — the "ID binding scheme with AppFutures [that] was required to
// communicate with the OpenAI API".
package futures

import (
	"fmt"

	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// State is an app future's lifecycle state.
type State int

// Future states.
const (
	Pending State = iota
	Running
	Done
	Failed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	default:
		return "failed"
	}
}

// DataFuture is a promise of a file produced by an app.
type DataFuture struct {
	File  storage.File
	ready bool
}

// Ready reports whether the file has been produced.
func (d *DataFuture) Ready() bool { return d.ready }

// AppFuture represents one submitted app execution.
type AppFuture struct {
	ID      string
	AppName string

	state   State
	outputs []*DataFuture
	err     error
	onDone  []func(*AppFuture)
}

// State returns the future's lifecycle state.
func (f *AppFuture) State() State { return f.state }

// Err returns the failure cause (nil unless Failed).
func (f *AppFuture) Err() error { return f.err }

// Outputs returns the app's data futures (ready only once Done).
func (f *AppFuture) Outputs() []*DataFuture { return f.outputs }

// OnDone registers a callback for terminal states; already-terminal futures
// fire immediately.
func (f *AppFuture) OnDone(fn func(*AppFuture)) {
	if f.state == Done || f.state == Failed {
		fn(f)
		return
	}
	f.onDone = append(f.onDone, fn)
}

// App describes an executable unit registered with the executor.
type App struct {
	Name string
	// DurationSec is the app's simulated execution time.
	DurationSec float64
	// Outputs names the files the app produces (sizes simulated as a
	// fraction of summed input size, or 1 MB for source apps).
	Outputs []string
	// FailWith, when non-empty, makes executions fail with this message
	// (used to exercise the §2 error paths).
	FailWith string
	// FailFirstN limits FailWith to the first N executions of the app —
	// a transient fault that a retry (e.g. by the §2.2 debugger agent)
	// gets past. 0 with a non-empty FailWith means fail always.
	FailFirstN int
}

// Executor runs apps on a sim engine with dataflow dependencies.
type Executor struct {
	eng      *sim.Engine
	apps     map[string]App
	registry map[string]*AppFuture
	execs    map[string]int // app → execution count (for FailFirstN)
	nextID   int
}

// NewExecutor returns an executor with an empty app registry.
func NewExecutor(eng *sim.Engine) *Executor {
	return &Executor{
		eng:      eng,
		apps:     map[string]App{},
		registry: map[string]*AppFuture{},
		execs:    map[string]int{},
	}
}

// RegisterApp makes an app submittable.
func (e *Executor) RegisterApp(a App) {
	e.apps[a.Name] = a
}

// Lookup resolves a future ID from the global dictionary.
func (e *Executor) Lookup(id string) (*AppFuture, bool) {
	f, ok := e.registry[id]
	return f, ok
}

// SubmitFromFiles launches an app whose inputs are physical files — the
// "function_call_from_file" entry point used for the first workflow step.
func (e *Executor) SubmitFromFiles(appName string, files []storage.File) (*AppFuture, error) {
	app, ok := e.apps[appName]
	if !ok {
		return nil, fmt.Errorf("futures: unknown app %q", appName)
	}
	inBytes := 0.0
	for _, f := range files {
		inBytes += f.Bytes
	}
	return e.launch(app, nil, inBytes), nil
}

// SubmitFromFutures launches an app depending on prior app futures — the
// "function_call_from_futures" entry point: "first retrieves the AppFutures
// of the received IDs, and their DataFutures are extracted to be used as
// inputs".
func (e *Executor) SubmitFromFutures(appName string, futureIDs []string) (*AppFuture, error) {
	app, ok := e.apps[appName]
	if !ok {
		return nil, fmt.Errorf("futures: unknown app %q", appName)
	}
	deps := make([]*AppFuture, 0, len(futureIDs))
	for _, id := range futureIDs {
		dep, ok := e.registry[id]
		if !ok {
			return nil, fmt.Errorf("futures: unknown future ID %q", id)
		}
		deps = append(deps, dep)
	}
	return e.launch(app, deps, 0), nil
}

func (e *Executor) launch(app App, deps []*AppFuture, inBytes float64) *AppFuture {
	e.nextID++
	f := &AppFuture{
		ID:      fmt.Sprintf("fut-%04d", e.nextID),
		AppName: app.Name,
		state:   Pending,
	}
	for _, name := range app.Outputs {
		f.outputs = append(f.outputs, &DataFuture{File: storage.File{Name: name}})
	}
	e.registry[f.ID] = f

	remaining := len(deps)
	start := func() {
		// Dependency failure propagates.
		for _, d := range deps {
			if d.state == Failed {
				e.finish(f, fmt.Errorf("futures: dependency %s failed: %v", d.ID, d.err))
				return
			}
			inBytes += d.totalOutputBytes()
		}
		f.state = Running
		e.execs[app.Name]++
		nth := e.execs[app.Name]
		e.eng.After(sim.Time(app.DurationSec), func() {
			if app.FailWith != "" && (app.FailFirstN == 0 || nth <= app.FailFirstN) {
				e.finish(f, fmt.Errorf("futures: app %s: %s", app.Name, app.FailWith))
				return
			}
			outBytes := inBytes * 0.5
			if outBytes <= 0 {
				outBytes = 1e6
			}
			for _, d := range f.outputs {
				d.File.Bytes = outBytes / float64(len(f.outputs))
				d.ready = true
			}
			e.finish(f, nil)
		})
	}
	if remaining == 0 {
		e.eng.After(0, start)
	} else {
		for _, d := range deps {
			d.OnDone(func(*AppFuture) {
				remaining--
				if remaining == 0 {
					start()
				}
			})
		}
	}
	return f
}

func (f *AppFuture) totalOutputBytes() float64 {
	sum := 0.0
	for _, d := range f.outputs {
		sum += d.File.Bytes
	}
	return sum
}

func (e *Executor) finish(f *AppFuture, err error) {
	if err != nil {
		f.state = Failed
		f.err = err
	} else {
		f.state = Done
	}
	cbs := f.onDone
	f.onDone = nil
	for _, fn := range cbs {
		fn(f)
	}
}
