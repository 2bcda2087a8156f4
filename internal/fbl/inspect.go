package fbl

import (
	"unsafe"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// This file exposes read-only introspection for tests and experiments;
// none of it is part of the protocol.

// Mode returns the lifecycle mode.
func (p *Process) Mode() Mode { return p.mode }

// Incarnation returns the current incarnation number.
func (p *Process) Incarnation() ids.Incarnation { return p.inc }

// App returns the hosted application.
func (p *Process) App() workload.App { return p.app }

// Journal returns this instance's deliveries (in rsn order since this
// incarnation booted). Volatile: a crash clears it.
func (p *Process) Journal() []det.Determinant {
	return append([]det.Determinant(nil), p.journal...)
}

// SSN returns the last assigned send sequence number.
func (p *Process) SSN() ids.SSN { return p.ssn }

// RSN returns the last assigned receive sequence number.
func (p *Process) RSN() ids.RSN { return p.rsn }

// Blocked reports whether the live process is currently deferring
// application deliveries (blocking/Manetho styles during a gather).
func (p *Process) Blocked() bool { return p.blocked }

// DetEntries returns the current determinant log content.
func (p *Process) DetEntries() []det.Entry { return p.dets.All() }

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
	// SendLogBytes what they occupy: the payloads and the windows' arrays.
	SendLogRecords, SendLogBytes int
}

// DetStats returns the counters of this incarnation.
func (p *Process) DetStats() DetStats {
	st := DetStats{Stats: p.dets.Stats()}
	for _, w := range p.sendLog {
		if w == nil {
			continue
		}
		st.SendLogRecords += w.len()
		st.SendLogBytes += cap(w.recs) * int(unsafe.Sizeof(logRec{}))
		for _, rec := range w.live() {
			st.SendLogBytes += len(rec.payload)
		}
	}
	return st
}

// RecoveryState returns the recovery manager state.
func (p *Process) RecoveryState() recovery.State { return p.mgr.State() }

// SendLogSize returns the number of volatile send-log entries (all
// destinations), a garbage-collection observability hook.
func (p *Process) SendLogSize() int {
	total := 0
	for _, w := range p.sendLog {
		total += w.len()
	}
	return total
}

// ReplayProgress exposes the replay engine's position for tests and
// diagnostics: the next and final receive sequence numbers, how many
// needed messages are still missing, and how many frames sit deferred.
func (p *Process) ReplayProgress() (next, max ids.RSN, missing, deferred int) {
	return p.nextRSN, p.maxRSN, len(p.needed), len(p.deferred)
}

// MissingReplays returns the still-unreceived replay messages as
// (rsn, msgid) pairs in rsn order; diagnostics only.
func (p *Process) MissingReplays() []det.Determinant {
	out := make([]det.Determinant, 0, len(p.needed))
	//rollvet:allow maporder -- RSNs are unique per receiver, so sortByRSN below fully determines the order
	for id, rsn := range p.needed {
		out = append(out, det.Determinant{Msg: id, Receiver: p.env.ID(), RSN: rsn})
	}
	sortByRSN(out)
	return out
}

func sortByRSN(s []det.Determinant) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].RSN < s[j-1].RSN; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// SendLogSSNs returns the (dseq, ssn) pairs logged for destination q, in
// dseq order; diagnostics only.
func (p *Process) SendLogSSNs(q ids.ProcID) [][2]uint64 {
	log := p.sendLog[q]
	out := make([][2]uint64, 0, log.len())
	for i, rec := range log.live() {
		out = append(out, [2]uint64{log.base + uint64(i), uint64(rec.ssn)})
	}
	return out
}

// ExpDseq returns the expected-dseq watermark for sender q.
func (p *Process) ExpDseq(q ids.ProcID) uint64 { return p.expDseq[q] }
