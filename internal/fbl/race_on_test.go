//go:build race

package fbl

// raceEnabled: the race detector's instrumentation disables the compiler's
// append(buf, make([]byte, n)...) → grow + clear rewrite, so byte-budget
// gates that depend on it skip themselves.
const raceEnabled = true
