//go:build race

package core

// raceEnabled reports a -race build: sync.Pool drops a share of its items
// on purpose there, so the solver pool's refills make a window of warm
// admissions allocate a varying amount.
const raceEnabled = true
