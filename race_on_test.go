//go:build race

package hhcw_test

// raceEnabled reports a build with the race detector.
const raceEnabled = true
