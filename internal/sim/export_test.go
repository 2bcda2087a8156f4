package sim

import "math"

// ForceWindowPath makes every window of s fan out (parallel) or run inline,
// whatever its density and GOMAXPROCS.
func (s *Sharded) ForceWindowPath(parallel bool) {
	if parallel {
		s.fanOutAt = 0
	} else {
		s.fanOutAt = math.MaxInt64
	}
}
