//go:build race

package serve

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// share of its Puts at random, so a test of pooled reuse cannot hold.
const raceEnabled = true
