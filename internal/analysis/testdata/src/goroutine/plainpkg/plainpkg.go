// Package plainpkg is not one of the deterministic packages, so goroutines
// are its own business: the check stays silent here.
package plainpkg

func spawn(f func()) {
	go f()
}
