//go:build !race

package lower_test

// raceEnabled reports a -race build, which slows the pipeline several
// times over, so wall-clock bounds hold only without it.
const raceEnabled = false
