//go:build !race

package formula

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
