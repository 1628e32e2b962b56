package bench

import (
	"math"
	"time"
)

// The host the benchmark runs on is shared. Other tenants' load changes how
// long a memory access takes, by tens of percent over seconds to minutes,
// and the workloads slow with it. So the parent process times a gauge — a
// chase of dependent loads through a cycle larger than a core's L2 cache —
// at every block boundary, while the child waits, and scales each block's
// wall time to the gauge time of a quiet host: by (gaugeNominal / gauge
// time) to the power gaugeExponent, the gauge time being the mean of the
// gauges before and after the block. The gauge runs outside the measured
// process, so it adds nothing to the child's heap, resident set or CPU
// profile.
const (
	gaugeWords   = 1 << 20 // 4 MB of uint32
	gaugeSteps   = 100_000
	gaugeNominal = 2500 * time.Microsecond // the gauge on a quiet host
	// gaugeExponent is how far the scaling follows the gauge. The workloads'
	// run rates moved with the gauge time to the power 0.66–0.80 in
	// sessions where the host swung, and to 0.07–0.46 where it stayed
	// loaded; scaling by more than they move adds noise. On a 2-vCPU shared
	// host, over 22 sets of ten runs in five sessions, the spread of
	// runs_per_s averaged 11.9% unscaled, 7.3–7.4% with exponents from 0.35
	// to 0.5, and 8.6% with 0.7.
	gaugeExponent = 0.5
)

// gauge times the memory chase.
type gauge struct {
	cycle []uint32
	sink  uint32
}

func newGauge() *gauge {
	c := make([]uint32, gaugeWords)
	for i := range c {
		c[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle through every word, so the
	// chase visits gaugeSteps distinct words in an order no prefetcher
	// predicts.
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
	return &gauge{cycle: c}
}

// measure chases gaugeSteps loads twice untimed and then a third time
// timed. After the parent has waited out a block, the first chase takes up
// to twice as long as a chase run back to back with another, the more so
// the longer the wait, whatever the block did; after two, the timed chase
// sees only what the host's load does.
func (p *gauge) measure() time.Duration {
	p.chase()
	p.chase()
	start := time.Now()
	p.chase()
	return time.Since(start)
}

func (p *gauge) chase() {
	i := uint32(0)
	for k := 0; k < gaugeSteps; k++ {
		i = p.cycle[i]
	}
	p.sink += i
}

// scaleOf is the factor that takes wall time measured between two gauges to
// the quiet host's.
func scaleOf(before, after time.Duration) float64 {
	return math.Pow(float64(2*gaugeNominal)/float64(before+after), gaugeExponent)
}
