//go:build race

package server

// raceEnabled reports a -race build: the race detector's own
// allocations make allocation counts vary from run to run.
const raceEnabled = true
