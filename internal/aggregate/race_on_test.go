//go:build race

package aggregate

// raceEnabled reports a -race build, under which sync.Pool drops
// pooled scratch at random, so allocation counts hold only without it.
const raceEnabled = true
