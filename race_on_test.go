//go:build race

package perfpredict

// raceEnabled reports a -race build, under which sync.Pool drops
// pooled scratch at random, so allocation floors hold only without it.
const raceEnabled = true
