//go:build race

package tetris

// raceEnabled reports a -race build, whose sync.Pool drops Puts at
// random, so allocation counts of pooled paths are not exact there.
const raceEnabled = true
