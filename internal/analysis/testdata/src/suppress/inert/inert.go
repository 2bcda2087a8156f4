// Package inert holds suppressions and directives that silence nothing.
// Each must surface as a finding: a stale allow hides future regressions on
// its line, and a typoed directive would otherwise be dead weight the
// author believes is active.
package inert

import "time"

//rollvet:allow simtime -- nothing below reads a clock // want "silences nothing"
var sequence = 1

//rollvet:allowsimtime -- the missing space makes this no directive at all // want "unknown rollvet directive"
func mistyped() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

//rollvet:poold // want "unknown rollvet directive"
func typoedAnnotation() int { return sequence }

//rollvet:hotpath // want "unknown rollvet directive"
func retiredAnnotation() int { return sequence }

func live() time.Time {
	return time.Now() //rollvet:allow simtime -- fixture demonstrates a live allow
}
