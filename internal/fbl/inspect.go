package fbl

import (
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/node"
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

// DetLogLen returns the number of determinants in the volatile log.
func (p *Process) DetLogLen() int { return p.dets.Len() }

// LogSizes returns the number of determinants in the volatile log and how
// many of them are not yet stable (below the f+1-holder watermark).
// Allocation-free, for the timeline sampler.
func (p *Process) LogSizes() (journal, lag int) { return p.dets.Len(), p.dets.PendingCount() }

// DetStats is a process's account of its logging state since it booted: the
// determinant log's own counters (entries, stability lag, slab high-water
// mark and free slots, footprint, holder unions that reached an
// already-stable entry) and the size of the send log. What piggyback
// selection sent is counted as transmit encodes it, in metrics.Proc's
// PiggybackDets and PiggybackBytes: its list is overwritten by the next send.
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

// Phase maps the recovery manager's lifecycle state onto the host's phase
// alphabet; live splits into live and blocked (the paper's intrusion).
func (p *Process) Phase() node.Phase {
	switch p.mgr.State() {
	case recovery.StateRestoring:
		return node.PhaseRestoring
	case recovery.StateWaiting, recovery.StateLeading:
		return node.PhaseRecovering
	case recovery.StateReplaying:
		return node.PhaseReplaying
	}
	if p.mgr.Blocked() {
		return node.PhaseBlocked
	}
	return node.PhaseLive
}
