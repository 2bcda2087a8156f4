// Package sim — in the deterministic set — exercises the goroutine check.
package sim

func spawn(f func()) {
	go f() // want "go statement in deterministic package sim schedules work outside the event loop$"
}

func spawnClosure(n int, out chan<- int) {
	go func() { out <- n }() // want "go statement in deterministic package sim schedules work outside the event loop$"
}

func suppressedSpawn(f func()) {
	go f() //rollvet:allow goroutine -- fixture demonstrates the allow path
}
