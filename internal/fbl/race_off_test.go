//go:build !race

package fbl

const raceEnabled = false
