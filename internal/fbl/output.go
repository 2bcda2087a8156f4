package fbl

import (
	"slices"
	"sort"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
)

// This file implements the FBL output-commit rule (DESIGN §10): an output
// may be released once every determinant of a causally-antecedent delivery
// is either stable — replicated on f+1 hosts, or held by the storage
// pseudo-process in the f = n instance — or covered by this process's own
// durable checkpoint. No synchronous stable-storage write is required: the
// commit point arrives with ordinary piggyback traffic returning holder
// knowledge, or with the asynchronous periodic checkpoint.
//
// Bookkeeping is by count: a request costs O(1) — the output keeps how many
// entries were pending and the log generation it was requested at — and the
// determinant log reports each entry leaving the pending set with the
// generation it was recorded at (det.Log.OnSettled). The outputs that
// counted that entry are the waiting ones requested after it was recorded
// and before it left: a contiguous run of the seq-ordered waiting list, found
// by two binary searches. The per-delivery cost is proportional to what
// changed, not to what is pending — a full rescan per delivery made the D11
// client–server runs quadratic, and a per-request walk of the pending set
// made output commit the second-largest cost of the traffic runs.

// outBook is one process's output-commit bookkeeping.
type outBook struct {
	// waiting holds the requested outputs whose rule does not hold yet, in
	// request order: seq ascends and mark never descends.
	waiting []outWait
	// spans are the entries that left the log's pending set since the last
	// check. carried keeps, per id, the spans whose id was pending again at
	// a check: they pass with that id's next passing span.
	spans   []span
	carried map[ids.MsgID][]span
	diff    []int // check's scratch: a difference array over waiting
}

// outWait is one requested output waiting for `remaining` antecedent
// determinants to become stable or gone.
type outWait struct {
	seq       uint64
	mark      int // the log's generation at the request
	remaining int
}

// span is one entry's stay in the pending set: from its record at
// generation born until it left, when last outputs had been requested.
type span struct {
	id   ids.MsgID
	born int
	last uint64
}

// request enters output seq, which depends on every entry now pending in
// dets, and reports whether it commits at once: nothing is pending and the
// process is live. The local pending set is a conservative superset of the
// output's causal past (it may include concurrent entries we merely
// forward), which can only delay, never wrongly permit, a release.
func (b *outBook) request(seq uint64, dets *det.Log, live bool) bool {
	n := dets.PendingCount()
	if n == 0 && live {
		return true
	}
	b.waiting = append(b.waiting, outWait{seq: seq, mark: dets.Gen(), remaining: n})
	return false
}

// settled notes that entry id, recorded at generation born, left the
// pending set when last outputs had been requested. It is only noted here;
// check judges it.
func (b *outBook) settled(id ids.MsgID, born int, last uint64) {
	if len(b.waiting) > 0 {
		b.spans = append(b.spans, span{id, born, last})
	}
}

// run returns the waiting outputs that counted s's entry: requested at or
// after its record (mark ≥ born) and no later than its leaving (seq ≤ last).
func (b *outBook) run(s span) (lo, hi int) {
	w := b.waiting
	lo = sort.Search(len(w), func(i int) bool { return w[i].mark >= s.born })
	hi = sort.Search(len(w), func(i int) bool { return w[i].seq > s.last })
	return lo, max(lo, hi)
}

// pass takes s's entry off the count of every output in its run.
func (b *outBook) pass(s span) {
	lo, hi := b.run(s)
	b.diff[lo]--
	b.diff[hi]++
}

// check judges the noted spans, then — when live — commits through commit
// every waiting output whose rule now holds: its count reached zero, or a
// durable checkpoint covers it (seq ≤ cpOutSeq). A span passes if its id is
// stable or gone now, not when it was noted: a determinant our own
// checkpoint collected may have come back pending in a peer's piggyback
// before this check, and then the outputs that counted it keep waiting on
// the new copy (DESIGN §10).
func (b *outBook) check(dets *det.Log, cpOutSeq uint64, live bool, commit func(seq uint64)) {
	folded := len(b.spans) > 0
	if folded {
		b.diff = slices.Grow(b.diff[:0], len(b.waiting)+1)[:len(b.waiting)+1]
		clear(b.diff)
		for _, s := range b.spans {
			if !dets.StableOrGone(s.id) {
				if lo, hi := b.run(s); lo < hi {
					if b.carried == nil {
						b.carried = make(map[ids.MsgID][]span)
					}
					b.carried[s.id] = append(b.carried[s.id], s)
				}
				continue
			}
			b.pass(s)
			if cs, ok := b.carried[s.id]; ok {
				delete(b.carried, s.id)
				for _, c := range cs {
					b.pass(c)
				}
			}
		}
		b.spans = b.spans[:0]
	}
	if !folded && (len(b.waiting) == 0 || !live) {
		return
	}
	kept, d := b.waiting[:0], 0
	for i, w := range b.waiting {
		if folded {
			d += b.diff[i]
			w.remaining += d
		}
		if live && (w.remaining <= 0 || w.seq <= cpOutSeq) {
			commit(w.seq)
		} else {
			kept = append(kept, w)
		}
	}
	b.waiting = kept
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
	if p.outs.request(p.outSeq, p.dets, p.mgr.State() == recovery.StateLive) {
		p.par.Outputs.Committed(p.env.ID(), p.outSeq, p.env.Now())
	}
}

// noteSettled is the determinant log's OnSettled callback: id, recorded at
// generation born, became stable or was garbage-collected.
func (p *Process) noteSettled(id ids.MsgID, born int) { p.outs.settled(id, born, p.outSeq) }

// checkOutputs releases every waiting output whose rule now holds. It runs
// at the end of each Deliver (holder knowledge only changes there), after a
// checkpoint becomes durable, and when replay finishes. A recovering process
// defers all releases until it is live again, which is why outputs
// straddling a crash commit only after recovery completes.
func (p *Process) checkOutputs() {
	p.outs.check(p.dets, p.cpOutSeq, p.mgr.State() == recovery.StateLive, p.commitOutput)
}

func (p *Process) commitOutput(seq uint64) {
	p.par.Outputs.Committed(p.env.ID(), seq, p.env.Now())
}
