package service

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"hhcw/internal/compose"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/provenance"
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

// A negative admission budget rejects every arrival: with no slot ever
// free, deferring would strand the arrival in the backpressure queue.
func TestNegativeBudgetRejectsAll(t *testing.T) {
	cfg := smallScenario(false)
	cfg.Tenants[0].MaxInFlight = -1
	res, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	if tr.Arrivals == 0 || tr.Admitted != 0 || tr.Deferred != 0 || tr.Rejected != tr.Arrivals {
		t.Fatalf("budget -1: %d arrivals, %d admitted, %d deferred, %d rejected; want all rejected",
			tr.Arrivals, tr.Admitted, tr.Deferred, tr.Rejected)
	}
	if tr.RejectionRate != 1 {
		t.Fatalf("rejection rate %v, want 1", tr.RejectionRate)
	}
	if bob := res.Tenants[1]; bob.Admitted == 0 || bob.Completed != bob.Admitted {
		t.Fatalf("the other tenant did not run: %+v", bob)
	}
}

// tenantFold is the tests' per-tenant oracle: the provenance records of one
// tenant, folded independently of the service's own accounting.
type tenantFold struct {
	started, failures int
	waitSum, coreSec  float64
}

// foldByTenant folds records by the tenant prefix of their workflow IDs.
func foldByTenant(recs []provenance.TaskRecord) map[string]tenantFold {
	out := map[string]tenantFold{}
	for _, r := range recs {
		tenant, _, _ := strings.Cut(r.WorkflowID, "/")
		f := out[tenant]
		if r.Failed {
			f.failures++
		}
		if r.Node != "" { // an attempt that never reached a node has no wait
			f.started++
			f.waitSum += float64(r.StartedAt - r.SubmittedAt)
			if !r.Failed {
				f.coreSec += float64(r.Cores) * float64(r.Runtime())
			}
		}
		out[tenant] = f
	}
	return out
}

// The service must release per-workflow state as workflows finish: at drain
// the provenance store exports no workflow structure, and only the records
// of both tenants remain.
func TestServiceStateBounded(t *testing.T) {
	cfg := smallScenario(false)
	var inFlight, tenants int
	var doc struct {
		Workflows map[string]json.RawMessage `json:"workflows"`
	}
	cfg.inspect = func(sv *serviceRun) {
		inFlight = sv.inFlightTotal
		tenants = len(foldByTenant(sv.cws.Provenance().All()))
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
	if tenants != 2 {
		t.Fatalf("records of %d tenants, want 2", tenants)
	}
	if res.Tenants[0].Completed == 0 || res.Tenants[1].Completed == 0 {
		t.Fatalf("no completions: %+v", res.Tenants)
	}
}

// Service accounting and a fold of the provenance records are two
// independent code paths over the same stream of task results; they must
// agree exactly.
func TestAccountingMatchesProvenance(t *testing.T) {
	cfg := smallScenario(true)
	var folds map[string]tenantFold
	cfg.inspect = func(sv *serviceRun) {
		folds = foldByTenant(sv.cws.Provenance().All())
	}
	res, err := Run(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		f, ok := folds[tr.Tenant]
		if !ok {
			t.Fatalf("no provenance records for %s", tr.Tenant)
		}
		if f.started != tr.TasksStarted {
			t.Errorf("%s: provenance started %d, service %d", tr.Tenant, f.started, tr.TasksStarted)
		}
		if f.coreSec != tr.UsedCoreSec {
			t.Errorf("%s: provenance core-sec %v, service %v", tr.Tenant, f.coreSec, tr.UsedCoreSec)
		}
		if want := tr.MeanWaitSec * float64(tr.TasksStarted); !approxEq(f.waitSum, want) {
			t.Errorf("%s: provenance wait sum %v, service %v", tr.Tenant, f.waitSum, want)
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
