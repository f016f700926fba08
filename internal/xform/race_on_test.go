//go:build race

package xform

// raceEnabled reports a -race build, in which searches run several
// times slower, so the longest tests check a subset.
const raceEnabled = true
