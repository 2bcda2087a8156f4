package fbl

import (
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// This file exposes read-only introspection for tests and experiments;
// none of it is part of the protocol.

// Incarnation returns the current incarnation number.
func (p *Process) Incarnation() ids.Incarnation { return p.inc }

// App returns the hosted application.
func (p *Process) App() workload.App { return p.app }

// SSN returns the last assigned send sequence number.
func (p *Process) SSN() ids.SSN { return p.ssn }

// RSN returns the last assigned receive sequence number.
func (p *Process) RSN() ids.RSN { return p.rsn }

// Blocked reports whether the live process is currently deferring
// application deliveries (blocking/Manetho styles during a gather).
func (p *Process) Blocked() bool { return p.mgr.Blocked() }

// DetLogLen returns the number of determinants in the volatile log.
func (p *Process) DetLogLen() int { return p.dets.Len() }

// DetPending returns the number of determinants not yet stable (below the
// f+1-holder watermark). Allocation-free, for the timeline sampler.
func (p *Process) DetPending() int { return p.dets.PendingCount() }

// DetStats is a process's account of its logging state since it booted: the
// determinant log's own counters (entries, stability lag, slab high-water
// mark and free slots, footprint, holder unions that reached an
// already-stable entry) and the size of the send log. What piggyback
// selection offered is metrics.Proc.PiggybackDets.
type DetStats struct {
	det.Stats
	// SendLogRecords is the number of logged messages, all destinations;
	// SendLogBytes what they occupy: the payloads' stored bytes (a pad is a
	// count) and the windows' arrays.
	SendLogRecords, SendLogBytes int
}

// DetStats returns the counters of this incarnation.
func (p *Process) DetStats() DetStats {
	st := DetStats{Stats: p.dets.Stats()}
	st.SendLogRecords, st.SendLogBytes = p.sendLog.Size()
	return st
}

// RecoveryState returns the lifecycle state, which the recovery manager
// holds.
func (p *Process) RecoveryState() recovery.State { return p.mgr.State() }
