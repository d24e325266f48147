//go:build !race

package corr

// raceEnabled reports a -race build, whose instrumented searches run some
// fifty times slower.
const raceEnabled = false
