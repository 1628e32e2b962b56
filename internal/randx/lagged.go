package randx

// lagged is math/rand's additive lagged-Fibonacci generator (Mitchell and
// Reeds: 607 slots, tap 273), reproduced bit for bit but seeded lazily.
//
// math/rand's Seed fills all 607 slots with 1841 sequential Lehmer steps
// (x ← 48271·x mod 2³¹−1) before the first draw. Slot i only ever depends
// on three of those steps, x₂₁₊₃ᵢ, x₂₂₊₃ᵢ and x₂₃₊₃ᵢ, and each is a closed
// form of the reduced seed x₀: xₖ = 48271ᵏ·x₀ mod 2³¹−1. So Seed here only
// stores x₀, and a slot is computed the first time a draw reads it. Over the
// first 334 draws the feed index walks the slots 333→0, and over the first
// 273 the tap index walks 606→334; together that is every slot exactly
// once, and every later read finds its slot already written. A source that
// draws a handful of values pays for a handful of slots.
type lagged struct {
	x0        uint64 // reduced seed in [1, 2³¹−1)
	tap, feed int
	drawn     int // draws so far, saturating at rngFresh
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// rngFresh is the draw count after which every slot has been filled.
	rngFresh = rngLen - rngTap
	int32max = 1<<31 - 1
	lehmerA  = 48271
)

// slotPow[i] holds 48271^(21+3i+j) mod 2³¹−1 for j = 0, 1, 2: the Lehmer
// multipliers that take the reduced seed to slot i's three steps.
var slotPow [rngLen][3]uint64

func init() {
	p := uint64(1)
	for k := 1; k <= 20; k++ {
		p = p * lehmerA % int32max
	}
	for i := range slotPow {
		for j := range slotPow[i] {
			p = p * lehmerA % int32max
			slotPow[i][j] = p
		}
	}
}

// Seed implements rand.Source: it reduces seed exactly as math/rand does and
// rewinds the generator; no slot is computed until a draw reads it.
func (g *lagged) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	g.x0 = uint64(seed)
	g.tap, g.feed, g.drawn = 0, rngLen-rngTap, 0
}

// slot is the seeded value of slot i: three Lehmer steps shifted into one
// 64-bit word and XORed with the cooked table, as math/rand's Seed builds it.
func (g *lagged) slot(i int) int64 {
	p := &slotPow[i]
	u := int64(p[0]*g.x0%int32max) << 40
	u ^= int64(p[1]*g.x0%int32max) << 20
	u ^= int64(p[2] * g.x0 % int32max)
	return u ^ rngCooked[i]
}

// Uint64 implements rand.Source64.
func (g *lagged) Uint64() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += rngLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += rngLen
	}
	if g.drawn < rngFresh {
		g.fill()
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// fill seeds the slots the current draw reads for the first time: the feed
// slot on each of the first rngFresh draws, the tap slot on each of the
// first rngTap.
func (g *lagged) fill() {
	g.vec[g.feed] = g.slot(g.feed)
	if g.drawn < rngTap {
		g.vec[g.tap] = g.slot(g.tap)
	}
	g.drawn++
}

// Int63 implements rand.Source.
func (g *lagged) Int63() int64 { return int64(g.Uint64() & rngMask) }
