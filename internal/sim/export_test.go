package sim

import (
	"math"
	"testing"
)

// ForceWindowPath makes every window of s fan out (parallel) or run inline,
// whatever its density and GOMAXPROCS.
func (s *Sharded) ForceWindowPath(parallel bool) {
	if parallel {
		s.fanOutAt = 0
	} else {
		s.fanOutAt = math.MaxInt64
	}
}

// LowerEventLimit sets the runaway guard to n for the rest of t.
func LowerEventLimit(t *testing.T, n int64) {
	old := maxEvents
	maxEvents = n
	t.Cleanup(func() { maxEvents = old })
}
