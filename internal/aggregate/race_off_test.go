//go:build !race

package aggregate

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
