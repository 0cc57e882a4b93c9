//go:build race

package trace_test

// raceEnabled reports whether the race detector is on (it allocates on
// its own account, so allocation-count tests skip under it).
const raceEnabled = true
