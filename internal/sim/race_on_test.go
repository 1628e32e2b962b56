//go:build race

package sim

// raceEnabled reports a build with the race detector, which instruments
// allocation, so allocation counts are not exact.
const raceEnabled = true
