package service

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// goldenProvService pins the provenance a faulted two-tenant service run
// writes — every task record (attempt numbers, placements, injected-failure
// errors, retry annotations) and the PROV-JSON export — byte for byte.
// Seeds 1..3 of smallScenario under faultyProfile, FIFO then fair share.
const goldenProvService = "321fdb56bb73d23b00269fd77265a2c98e1441ad3a72a4667818ba8de1d4a133"

func TestProvenanceDigestService(t *testing.T) {
	h := sha256.New()
	injected, annotated := 0, 0
	for _, fair := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := smallScenario(fair)
			cfg.Faults = faultyProfile()
			cfg.inspect = func(sv *serviceRun) {
				st := sv.cws.Provenance()
				for _, r := range st.All() {
					fmt.Fprintf(h, "%+v\n", r)
					if strings.Contains(r.Error, "injected") {
						injected++
					}
					if r.RetryPolicy != "" {
						annotated++
					}
				}
				doc, err := st.ExportPROV()
				if err != nil {
					t.Fatal(err)
				}
				h.Write(doc)
			}
			if _, err := Run(cfg, seed); err != nil {
				t.Fatalf("fair=%v seed %d: %v", fair, seed, err)
			}
		}
	}
	if injected == 0 || annotated == 0 {
		t.Fatalf("faulted runs injected %d failures and annotated %d retries; the digest would be vacuous", injected, annotated)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenProvService {
		t.Errorf("provenance digest = %s, want golden %s", got, goldenProvService)
	}
}
