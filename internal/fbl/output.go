package fbl

import (
	"rollrec/internal/ids"
)

// This file implements the FBL output-commit rule (DESIGN §10): an output
// may be released once every determinant of a causally-antecedent delivery
// is either stable — replicated on f+1 hosts, or held by the storage
// pseudo-process in the f = n instance — or covered by this process's own
// durable checkpoint. No synchronous stable-storage write is required: the
// commit point arrives with ordinary piggyback traffic returning holder
// knowledge, or with the asynchronous periodic checkpoint.
//
// Bookkeeping is incremental: each output carries only a count of awaited
// determinants, a reverse index maps determinant ids to their waiters, and
// the determinant log names each id as it leaves the pending set
// (det.Log.OnSettled). The per-delivery cost is proportional to
// what changed, not to what is pending — a full rescan per delivery made
// the D11 client–server runs quadratic.

// outWait is one requested output waiting for `remaining` antecedent
// determinants to become stable or gone.
type outWait struct {
	seq       uint64
	remaining int
}

// Output implements workload.Ctx.
func (c appCtx) Output(payload []byte) {
	p := c.p
	if p.par.Outputs == nil {
		return
	}
	p.outSeq++
	if !p.par.Outputs.Requested(p.env.ID(), p.outSeq, p.env.Now(), payload) {
		return // rollback re-execution of an already-released output
	}
	// The output depends on every delivery in its causal past whose
	// determinant is not yet stable. The local pending set is a
	// conservative superset of that past (it may include concurrent
	// entries we merely forward), which can only delay, never wrongly
	// permit, a release.
	w := &outWait{seq: p.outSeq}
	p.dets.PendingIDs(func(id ids.MsgID) {
		w.remaining++
		p.outWaiters[id] = append(p.outWaiters[id], w)
	})
	if w.remaining == 0 && p.mode == ModeLive {
		p.par.Outputs.Committed(p.env.ID(), p.outSeq, p.env.Now())
		return
	}
	p.pendingOuts = append(p.pendingOuts, w)
}

// noteSettled is the determinant log's OnSettled callback: id became stable
// or was garbage-collected. It is only noted here; checkOutputs judges it.
func (p *Process) noteSettled(id ids.MsgID) {
	if len(p.outWaiters) > 0 {
		p.settled = append(p.settled, id)
	}
}

// checkOutputs retires the waiters of determinants that left the pending
// set since the last call, then releases every pending output whose rule
// now holds. It runs at the end of each Deliver (holder knowledge only
// changes there), after a checkpoint becomes durable, and when replay
// finishes. A recovering process defers all releases until it is live
// again, which is why outputs straddling a crash commit only after
// recovery completes.
func (p *Process) checkOutputs() {
	for _, id := range p.settled {
		// Judged by the state now, not when noted: a determinant our own
		// checkpoint collected may have come back pending in a peer's
		// piggyback before this check, and then its waiters keep waiting.
		// Decrements for already-released outputs (committed via checkpoint
		// coverage) are harmless: they left pendingOuts.
		if ws, ok := p.outWaiters[id]; ok && p.dets.StableOrGone(id) {
			delete(p.outWaiters, id)
			for _, w := range ws {
				w.remaining--
			}
		}
	}
	p.settled = p.settled[:0]
	if len(p.pendingOuts) == 0 || p.mode != ModeLive {
		return
	}
	now := p.env.Now()
	kept := p.pendingOuts[:0]
	for _, w := range p.pendingOuts {
		if w.remaining <= 0 || w.seq <= p.cpOutSeq {
			p.par.Outputs.Committed(p.env.ID(), w.seq, now)
		} else {
			kept = append(kept, w)
		}
	}
	p.pendingOuts = kept
}
