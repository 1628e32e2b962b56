//go:build !race

package compose

// raceEnabled reports a build with the race detector (see race_on_test.go).
const raceEnabled = false
