//go:build !race

package prover

const raceEnabled = false
