package futures

import "testing"

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Pending: "pending", Running: "running", Done: "done", Failed: "failed",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestTransientFailureFirstN(t *testing.T) {
	eng, e := newExec()
	e.RegisterApp(App{Name: "flaky", DurationSec: 5, Outputs: []string{"o"},
		FailWith: "transient", FailFirstN: 2})
	f1, _ := e.SubmitFromFiles("flaky", nil)
	eng.Run()
	if f1.State() != Failed {
		t.Fatal("first execution should fail")
	}
	f2, _ := e.SubmitFromFiles("flaky", nil)
	eng.Run()
	if f2.State() != Failed {
		t.Fatal("second execution should fail")
	}
	f3, _ := e.SubmitFromFiles("flaky", nil)
	eng.Run()
	if f3.State() != Done {
		t.Fatalf("third execution should succeed, got %v: %v", f3.State(), f3.Err())
	}
}
