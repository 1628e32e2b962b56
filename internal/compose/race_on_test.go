//go:build race

package compose

// raceEnabled reports a build with the race detector, whose sync.Pool drops
// pooled objects at random, so allocation counts are not exact.
const raceEnabled = true
