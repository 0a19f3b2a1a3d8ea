//go:build race

package prover

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random and allocation counts are not meaningful.
const raceEnabled = true
