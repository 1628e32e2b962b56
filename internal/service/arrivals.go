// Package service turns the closed-batch simulator into an open system: a
// long-lived multi-tenant service absorbing workflow arrival streams — the
// operating regime the paper's §6 migration discussion worries about (fair
// share, over-parallelism, starvation) and the RADICAL-EnTK line of work
// frames runtimes around. Tenants inject compiled workflows through arrival
// processes into one shared rm.TaskManager/CWS session; the service adds
// admission control in front of the scheduler and per-tenant accounting,
// fair-share scheduling, and SLO metrics behind it.
//
// Everything runs in virtual time on forked randx sources, so a service run
// is a pure function of (Config, seed): same inputs ⇒ bit-identical Result
// fingerprints at any sweep worker count.
package service

import (
	"fmt"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// Arrivals is a workflow arrival process. Next returns the delay from now to
// the tenant's next arrival, consuming randomness only from rng — the
// determinism contract every profile must keep.
type Arrivals interface {
	Name() string
	Next(now sim.Time, rng *randx.Source) sim.Time
}

// Poisson is a homogeneous Poisson arrival process.
type Poisson struct {
	RatePerHour float64
}

// Name implements Arrivals.
func (p Poisson) Name() string { return fmt.Sprintf("poisson(%.3g/h)", p.RatePerHour) }

// Next implements Arrivals: exponential inter-arrival times.
func (p Poisson) Next(_ sim.Time, rng *randx.Source) sim.Time {
	if p.RatePerHour <= 0 {
		panic("service: Poisson arrivals with non-positive rate")
	}
	return sim.Time(rng.Exp(3600 / p.RatePerHour))
}
