//go:build race

package formula

// raceEnabled reports a -race build: sync.Pool drops a share of its items
// on purpose there, so warm solves allocate a varying amount.
const raceEnabled = true
