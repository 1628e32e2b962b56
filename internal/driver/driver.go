// Package driver is the shared runtime of every cmd/ binary: one flag
// surface (-seed, -faults, -trace, -provenance, -json plus per-command
// flags), one environment-construction path, and one report pipeline
// (compose.Report rendered as text or machine-readable JSON). Commands
// declare what is specific to them and inherit everything else, so the
// reproduction's seven entry points behave identically where they overlap.
package driver

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hhcw/internal/compose"
	"hhcw/internal/core"
	"hhcw/internal/fault"
	"hhcw/internal/provenance"
	"hhcw/internal/trace"
)

// App owns a command's flag set and report plumbing. Create one with New,
// register command-specific flags through the typed methods, then Parse.
type App struct {
	name string
	fs   *flag.FlagSet

	seed       *int64
	faultsName *string
	traceOut   *string
	provOut    *string
	jsonOut    *bool
	cpuOut     *string
	memOut     *string

	faults         fault.Profile
	noFaults       bool
	wroteArtifacts bool
	cpuFile        *os.File
	profilesDone   bool
}

// New creates an App named after the command and registers the common flags
// every binary shares. synopsis is the one-line usage string printed above
// the flag help.
func New(name, synopsis string) *App {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	a := &App{name: name, fs: fs}
	a.seed = fs.Int64("seed", 1, "simulation seed")
	a.faultsName = fs.String("faults", "none", "fault profile: none|mtbf|spot|storm")
	a.traceOut = fs.String("trace", "", "write a Chrome trace JSON of the run (provenance-enabled runs)")
	a.provOut = fs.String("provenance", "", "write a W3C PROV-JSON document of the run (provenance-enabled runs)")
	a.jsonOut = fs.Bool("json", false, "emit the report as machine-readable JSON (schema "+compose.Schema+")")
	a.cpuOut = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	a.memOut = fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "Usage: %s\n\n", synopsis)
		fs.PrintDefaults()
	}
	return a
}

// Typed flag registration, passed through to the app's private flag set so
// commands never touch package flag directly.

// Int registers an int flag.
func (a *App) Int(name string, value int, usage string) *int { return a.fs.Int(name, value, usage) }

// Bool registers a bool flag.
func (a *App) Bool(name string, value bool, usage string) *bool {
	return a.fs.Bool(name, value, usage)
}

// String registers a string flag.
func (a *App) String(name, value, usage string) *string { return a.fs.String(name, value, usage) }

// SeedDefault overrides the default of the common -seed flag (call before
// Parse). Commands calibrated around a historical seed keep their behaviour.
func (a *App) SeedDefault(v int64) {
	*a.seed = v
	a.fs.Lookup("seed").DefValue = fmt.Sprint(v)
	a.fs.Lookup("seed").Value.Set(fmt.Sprint(v))
}

// NoFaults marks the command as having no fault-injecting substrate; Parse
// rejects an enabled -faults profile with a clear error instead of silently
// ignoring it.
func (a *App) NoFaults() { a.noFaults = true }

// Parse parses os.Args, resolves the fault profile, and validates the common
// flag combinations. It exits the process on any error.
func (a *App) Parse() {
	a.fs.Parse(os.Args[1:])
	faults, err := fault.ByName(*a.faultsName)
	if err != nil {
		a.Usagef("%v", err)
	}
	if a.noFaults && faults.Enabled() {
		a.Usagef("-faults %s is not supported by this command", *a.faultsName)
	}
	a.faults = faults
	if *a.cpuOut != "" {
		f, err := os.Create(*a.cpuOut)
		if err != nil {
			a.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			a.Fatalf("-cpuprofile: %v", err)
		}
		a.cpuFile = f
	}
}

// stopProfiles flushes the -cpuprofile and -memprofile outputs. It runs on
// every exit path (Emit, Fatalf, Usagef) and is idempotent, so a failed run
// still leaves a usable CPU profile behind. Profile-writing errors are
// reported to stderr directly — never through Fatalf, which would recurse.
func (a *App) stopProfiles() {
	if a.profilesDone {
		return
	}
	a.profilesDone = true
	if a.cpuFile != nil {
		pprof.StopCPUProfile()
		a.cpuFile.Close()
		a.cpuFile = nil
		a.Logf("wrote cpu profile %s (go tool pprof %s)", *a.cpuOut, *a.cpuOut)
	}
	if a.memOut != nil && *a.memOut != "" {
		f, err := os.Create(*a.memOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", a.name, err)
			return
		}
		runtime.GC() // materialize the live heap, not allocation noise
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", a.name, err)
		}
		f.Close()
		a.Logf("wrote heap profile %s (go tool pprof %s)", *a.memOut, *a.memOut)
	}
}

// Args returns the positional arguments left after flag parsing.
func (a *App) Args() []string { return a.fs.Args() }

// Seed returns the common -seed value.
func (a *App) Seed() int64 { return *a.seed }

// Faults returns the resolved -faults profile.
func (a *App) Faults() fault.Profile { return a.faults }

// FaultsName returns the raw -faults flag value.
func (a *App) FaultsName() string { return *a.faultsName }

// JSON reports whether -json was set.
func (a *App) JSON() bool { return *a.jsonOut }

// NewReport starts the command's report with the common header fields.
func (a *App) NewReport() *compose.Report {
	return compose.NewReport(a.name, a.Seed(), a.FaultsName())
}

// Fatalf prints "name: message" to stderr and exits 1 — runtime failures.
func (a *App) Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, a.name+": "+format+"\n", args...)
	a.stopProfiles()
	os.Exit(1)
}

// Usagef prints "name: message" to stderr and exits 2 — flag/usage errors.
func (a *App) Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, a.name+": "+format+"\n", args...)
	a.stopProfiles()
	os.Exit(2)
}

// Check exits via Fatalf when err is non-nil.
func (a *App) Check(err error) {
	if err != nil {
		a.Fatalf("%v", err)
	}
}

// Logf prints progress to stderr, keeping stdout clean for the report (and
// for -json consumers in particular).
func (a *App) Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, a.name+": "+format+"\n", args...)
}

// WriteArtifacts writes the -trace and -provenance outputs from a run's
// provenance store. Commands call it once for the run the artifacts should
// describe; it is a no-op when neither flag is set, and fails when a flag is
// set but the run carried no provenance (e.g. a FIFO environment).
func (a *App) WriteArtifacts(res *core.Result) {
	if *a.traceOut == "" && *a.provOut == "" {
		return
	}
	store, ok := res.Provenance.(*provenance.Store)
	if !ok {
		a.Usagef("-trace/-provenance need a provenance-enabled run (a CWS-scheduled environment)")
	}
	if *a.traceOut != "" {
		raw, err := trace.FromProvenance(store).JSON()
		a.Check(err)
		a.Check(os.WriteFile(*a.traceOut, raw, 0o644))
		a.Logf("wrote trace %s (open in chrome://tracing)", *a.traceOut)
	}
	if *a.provOut != "" {
		raw, err := store.ExportPROV()
		a.Check(err)
		a.Check(os.WriteFile(*a.provOut, raw, 0o644))
		a.Logf("wrote provenance %s (W3C PROV-JSON)", *a.provOut)
	}
	a.wroteArtifacts = true
}

// Emit renders the report to stdout — compose.Report JSON under -json, the
// deterministic text rendering otherwise — and enforces that requested
// artifacts were produced.
func (a *App) Emit(rep *compose.Report) {
	if !a.wroteArtifacts && (*a.traceOut != "" || *a.provOut != "") {
		a.Usagef("-trace/-provenance are not produced by this command mode")
	}
	a.stopProfiles()
	if a.JSON() {
		raw, err := rep.JSON()
		a.Check(err)
		os.Stdout.Write(raw)
		return
	}
	fmt.Print(rep.Text())
}
