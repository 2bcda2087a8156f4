// Package clocked exercises the simtime check: observing the wall clock is
// a violation, pure time.Duration arithmetic is not.
package clocked

import "time"

func bad() time.Time {
	time.Sleep(time.Millisecond) // want "time.Sleep reads the wall clock; sim-driven code"
	return time.Now()            // want "time.Now reads the wall clock; sim-driven code"
}

func badTimers(f func()) {
	time.AfterFunc(time.Second, f) // want "time.AfterFunc reads the wall clock; sim-driven code"
	<-time.After(time.Second)      // want "time.After reads the wall clock; sim-driven code"
}

func badDelta(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since reads the wall clock; sim-driven code"
}

func durationsAreFine() time.Duration {
	d := 3 * time.Second
	return d.Round(time.Millisecond)
}

func suppressedStandalone() time.Time {
	//rollvet:allow simtime -- fixture demonstrates the standalone allow form
	return time.Now()
}

func suppressedTrailing() time.Time {
	return time.Now() //rollvet:allow simtime -- fixture demonstrates the trailing allow form
}
