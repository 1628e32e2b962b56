package service

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"hhcw/internal/compose"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
)

func faultyProfile() fault.Profile {
	return fault.Profile{
		Name:            "svc-chaos",
		NodeMTBFSec:     4 * 3600,
		NodeMTTRSec:     600,
		TaskFailProb:    0.05,
		TaskFailPersist: 1,
	}
}

// smallScenario is a fast two-tenant config for behavioral tests: a 2×4-core
// cluster under a one-hour horizon runs in well under 10 ms.
func smallScenario(fairShare bool) Config {
	wl := LayeredWorkload(2, 3, dag.GenOpts{MeanDur: 90, CVDur: 0.5, Cores: 1, MaxCores: 2, MeanMem: 1e9})
	return Config{
		Nodes:        2,
		CoresPerNode: 4,
		FairShare:    fairShare,
		HorizonSec:   3600,
		Tenants: []Tenant{
			{ID: "alice", Weight: 2, Arrivals: Poisson{RatePerHour: 30}, Workload: wl},
			{ID: "bob", Weight: 1, Arrivals: Poisson{RatePerHour: 15}, Workload: wl},
		},
	}
}

// A workload whose every task is wider than any node can never settle: the
// run must fail naming the stuck workflows, not end with them counted as
// neither completed nor failed.
func TestRunUnplaceableWorkloadErrors(t *testing.T) {
	cfg := smallScenario(false) // 4-core nodes
	wide := LayeredWorkload(2, 3, dag.GenOpts{MeanDur: 90, CVDur: 0.5, Cores: 8, MaxCores: 8, MeanMem: 1e9})
	for i := range cfg.Tenants {
		cfg.Tenants[i].Workload = wide
	}
	res, err := Run(cfg, 99)
	if err == nil {
		t.Fatalf("unplaceable workload ran without error: %+v", res)
	}
	if !strings.Contains(err.Error(), "16 admitted workflows unsettled") {
		t.Fatalf("error %q does not name the 16 unsettled workflows", err)
	}
	var se *rm.StallError
	if !errors.As(err, &se) || se.Done != 0 {
		t.Fatalf("error %q does not wrap a stalled runner's *rm.StallError", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, fs := range []bool{false, true} {
		a, err := Run(smallScenario(fs), 99)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(smallScenario(fs), 99)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("fairshare=%v: same seed diverged: %s vs %s", fs, a.Fingerprint(), b.Fingerprint())
		}
		c, err := Run(smallScenario(fs), 100)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() == c.Fingerprint() {
			t.Fatalf("fairshare=%v: different seeds collided", fs)
		}
	}
	if a, _ := Run(smallScenario(false), 99); a != nil {
		if b, _ := Run(smallScenario(true), 99); a.Fingerprint() == b.Fingerprint() {
			t.Fatal("fifo and fairshare produced identical fingerprints")
		}
	}
}

// The fork-order contract: a tenant's arrival and workload streams are
// identical whether it runs alone or contended, so solo baselines are
// apples-to-apples.
func TestSoloSeesSameStreams(t *testing.T) {
	full, err := Run(smallScenario(false), 41)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range full.Tenants {
		solo, err := runSolo(nil, smallScenario(false), 41, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(solo.Tenants) != 1 || solo.Tenants[0].Tenant != tr.Tenant {
			t.Fatalf("solo run reported %+v, want just %s", solo.Tenants, tr.Tenant)
		}
		st := solo.Tenants[0]
		if st.Arrivals != tr.Arrivals {
			t.Fatalf("%s: solo saw %d arrivals, contended %d — streams diverged", tr.Tenant, st.Arrivals, tr.Arrivals)
		}
		if st.Admitted != tr.Admitted || st.TasksStarted != tr.TasksStarted {
			// With no admission pressure in either mode here, the same
			// workflows must be admitted and run.
			t.Fatalf("%s: solo admitted/started %d/%d, contended %d/%d",
				tr.Tenant, st.Admitted, st.TasksStarted, tr.Admitted, tr.TasksStarted)
		}
		if st.P99WaitSec > tr.P99WaitSec {
			t.Fatalf("%s: solo p99 wait %.1f exceeds contended %.1f", tr.Tenant, st.P99WaitSec, tr.P99WaitSec)
		}
	}
}

// Admission control must bound service state and account every arrival as
// exactly one of admitted/deferred-then-admitted/rejected.
func TestAdmissionControlBoundsAndAccounts(t *testing.T) {
	cfg := smallScenario(false)
	cfg.Tenants[0].Arrivals = Poisson{RatePerHour: 240} // far beyond capacity
	cfg.Tenants[0].MaxInFlight = 3
	cfg.Tenants[0].MaxDeferred = 4
	res, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	if tr.Rejected == 0 {
		t.Fatalf("overloaded tenant was never rejected: %+v", tr)
	}
	if tr.Deferred == 0 {
		t.Fatalf("overloaded tenant was never deferred: %+v", tr)
	}
	if tr.MeanDeferSec <= 0 {
		t.Fatalf("deferred admissions recorded no wait: %+v", tr)
	}
	// The deferred queue drains at completions, so by drain time every
	// arrival is either admitted or rejected — none lost, none duplicated.
	if tr.Admitted+tr.Rejected != tr.Arrivals {
		t.Fatalf("arrivals %d != admitted %d + rejected %d", tr.Arrivals, tr.Admitted, tr.Rejected)
	}
	if tr.Completed+tr.WfFailed != tr.Admitted {
		t.Fatalf("admitted %d != completed %d + failed %d", tr.Admitted, tr.Completed, tr.WfFailed)
	}
	if tr.RejectionRate <= 0 || tr.RejectionRate >= 1 {
		t.Fatalf("rejection rate %.3f out of (0,1)", tr.RejectionRate)
	}

	// MaxDeferred < 0 disables deferral outright.
	cfg.Tenants[0].MaxDeferred = -1
	res, err = Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr := res.Tenants[0]; tr.Deferred != 0 || tr.Rejected == 0 {
		t.Fatalf("deferral not disabled: %+v", tr)
	}
}

// The service must release per-workflow state as workflows finish: at drain
// the provenance store exports no workflow structure, and only the
// per-tenant aggregates remain.
func TestServiceStateBounded(t *testing.T) {
	cfg := smallScenario(false)
	var inFlight, wfStates int
	var doc struct {
		Workflows map[string]json.RawMessage `json:"workflows"`
	}
	cfg.inspect = func(sv *serviceRun) {
		inFlight = sv.inFlightTotal
		wfStates = len(sv.cws.Provenance().StatsByTenant())
		raw, err := sv.cws.Provenance().ExportPROV()
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	if inFlight != 0 {
		t.Fatalf("%d workflows still in flight at drain", inFlight)
	}
	if len(doc.Workflows) != 0 {
		t.Fatalf("%d workflow structures still registered at drain", len(doc.Workflows))
	}
	if wfStates != 2 {
		t.Fatalf("tenant aggregates = %d, want 2", wfStates)
	}
	if res.Tenants[0].Completed == 0 || res.Tenants[1].Completed == 0 {
		t.Fatalf("no completions: %+v", res.Tenants)
	}
}

// Service accounting and the provenance store's per-tenant aggregates are
// two independent code paths over the same stream of task results; they
// must agree exactly.
func TestAccountingMatchesProvenance(t *testing.T) {
	cfg := smallScenario(true)
	var stats map[string][4]float64
	cfg.inspect = func(sv *serviceRun) {
		stats = map[string][4]float64{}
		for _, st := range sv.cws.Provenance().StatsByTenant() {
			stats[st.Tenant] = [4]float64{float64(st.Started), st.CoreSeconds, st.QueueWaitSum, float64(st.Failures)}
		}
	}
	res, err := Run(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		st, ok := stats[tr.Tenant]
		if !ok {
			t.Fatalf("no provenance aggregate for %s", tr.Tenant)
		}
		if int(st[0]) != tr.TasksStarted {
			t.Errorf("%s: provenance started %d, service %d", tr.Tenant, int(st[0]), tr.TasksStarted)
		}
		if st[1] != tr.UsedCoreSec {
			t.Errorf("%s: provenance core-sec %v, service %v", tr.Tenant, st[1], tr.UsedCoreSec)
		}
		if want := tr.MeanWaitSec * float64(tr.TasksStarted); !approxEq(st[2], want) {
			t.Errorf("%s: provenance wait sum %v, service %v", tr.Tenant, st[2], want)
		}
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+b)
}

// Faulty runs stay deterministic and drain: the injector must stop once the
// horizon passes and the last workflow completes.
func TestServiceWithFaultsDrains(t *testing.T) {
	cfg := smallScenario(false)
	cfg.Faults = faultyProfile()
	a, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("faulty run diverged: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	if a.DrainedAtSec <= 0 || a.DrainedAtSec > 10*cfg.HorizonSec {
		t.Fatalf("drained at %.0f s — injector likely kept the engine alive", a.DrainedAtSec)
	}
	total := 0
	for _, tr := range a.Tenants {
		total += tr.Completed + tr.WfFailed
	}
	if total == 0 {
		t.Fatal("nothing finished under faults")
	}
}

// Workload compile errors surface as run errors, not hangs.
func TestWorkloadCompileErrorFailsRun(t *testing.T) {
	cfg := smallScenario(false)
	cfg.Tenants[0].Workload = func(*randx.Source) compose.Compiler {
		return compose.Func(func() (*dag.Workflow, error) { return nil, errBoom })
	}
	if _, err := Run(cfg, 1); err == nil || !strings.Contains(err.Error(), "compile") {
		t.Fatalf("err = %v, want compile failure", err)
	}
}

var errBoom = &compileErr{}

type compileErr struct{}

func (*compileErr) Error() string { return "boom" }
