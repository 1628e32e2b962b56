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
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// Poisson is a homogeneous Poisson workflow arrival process. Its rate must
// be positive and finite; run rejects any other with ErrArrivalRate.
type Poisson struct {
	RatePerHour float64
}

// Next returns the exponential delay to the next arrival, consuming
// randomness only from rng.
func (p Poisson) Next(rng *randx.Source) sim.Time {
	return sim.Time(rng.Exp(3600 / p.RatePerHour))
}
