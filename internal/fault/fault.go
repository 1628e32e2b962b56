// Package fault is the unified deterministic fault-injection and
// recovery-policy layer. The paper's robustness story (§4.3: EnTK resubmits
// failed ExaAM tasks in smaller consecutive jobs at 8000-node scale) used to
// be reproduced by unrelated mechanisms — a cluster-level node-fault
// scheduler, exaam.injectFailures, entk's resubmission rounds and a separate
// cloud spot fleet — none of which composed. This package factors both sides
// of the problem into one place, and node faults and spot reclaims live only
// here:
//
//   - failure processes (process.go): exponential-MTBF node faults, transient
//     task failures with configurable persistence, spot-style reclaims with a
//     warning lead time, and I/O slowdown episodes, all driven by forked
//     randx sources on a sim.Engine so chaos runs are bit-identical per seed;
//   - recovery policies (this file): retry with capped exponential backoff
//     and deterministic jitter, up to an attempt budget; a task that
//     exhausts it fails terminally and its descendants are written off.
//
// The task driver, rm.StreamRunner, consumes RetryPolicy on every substrate
// (the CWS path included) instead of ad-hoc retry counters, which is where
// RADICAL-Pilot/Parsl put recovery too: in the pilot/runtime layer, not in
// each driver. entk.AppManager's resubmission jobs keep their own round
// budget (MaxResubmitRounds).
package fault

import (
	"fmt"
	"math"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// RetryPolicy is the shared recovery policy. The zero value means "one
// attempt, no backoff"; DefaultRetryPolicy returns the tuning every fault run
// uses.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first try
	// (<= 0 is treated as 1: no retries).
	MaxAttempts int
	// BaseDelaySec is the backoff before the first retry.
	BaseDelaySec float64
	// MaxDelaySec caps the grown backoff (0 = uncapped).
	MaxDelaySec float64
	// Multiplier grows the delay per retry (<= 1 is treated as 2).
	Multiplier float64
	// JitterFrac spreads each delay uniformly in ±JitterFrac·delay, drawn
	// from the deterministic rng handed to Backoff. Jitter decorrelates
	// retry storms without breaking reproducibility.
	JitterFrac float64
}

// DefaultRetryPolicy returns the policy the named chaos profiles run under.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:  5,
		BaseDelaySec: 5,
		MaxDelaySec:  120,
		Multiplier:   2,
		JitterFrac:   0.2,
	}
}

// String renders the policy compactly — the form stored as recovery metadata
// in provenance records and trace args. The constant "timeout=0s break=0"
// tail keeps the label that provenance digests and PROV exports hash.
func (p RetryPolicy) String() string {
	return fmt.Sprintf("retry(max=%d base=%gs mult=%g cap=%gs jitter=%g timeout=0s break=0)",
		p.Attempts(), p.BaseDelaySec, p.Multiplier, p.MaxDelaySec, p.JitterFrac)
}

// Attempts returns the normalized total attempt budget (>= 1).
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// ShouldRetry reports whether another attempt is allowed after `attempt`
// (1-based) just failed.
func (p RetryPolicy) ShouldRetry(attempt int) bool {
	return attempt < p.Attempts()
}

// Backoff returns the delay before the attempt following `attempt` (1-based):
// BaseDelaySec · Multiplier^(attempt-1), capped at MaxDelaySec, with
// deterministic jitter drawn from rng (rng may be nil: no jitter). The result
// is never negative.
func (p RetryPolicy) Backoff(attempt int, rng *randx.Source) sim.Time {
	if p.BaseDelaySec <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseDelaySec * math.Pow(mult, float64(attempt-1))
	if p.MaxDelaySec > 0 && d > p.MaxDelaySec {
		d = p.MaxDelaySec
	}
	if p.JitterFrac > 0 && rng != nil {
		d *= 1 + p.JitterFrac*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return sim.Time(d)
}
