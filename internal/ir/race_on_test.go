//go:build race

package ir

// raceEnabled reports a -race build, under which sync.Pool drops
// entries at random, so pooled scratch can allocate.
const raceEnabled = true
