//go:build race

package explore

// raceEnabled: the race detector's own allocations make allocation counts
// meaningless.
const raceEnabled = true
