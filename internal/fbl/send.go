package fbl

import (
	"fmt"
	"time"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/wire"
)

// appCtx implements workload.Ctx on top of the protocol process.
type appCtx struct{ p *Process }

func (c appCtx) Self() ids.ProcID { return c.p.env.ID() }
func (c appCtx) N() int           { return c.p.n }
func (c appCtx) Work(d int64)     { c.p.env.Busy(time.Duration(d)) }
func (c appCtx) Logf(format string, args ...any) {
	c.p.env.Logf(format, args...)
}

// Send is the application send path: assign identifiers, log the message in
// the sender's volatile store (sender-based message logging), attach the
// causal piggyback, and transmit.
func (c appCtx) Send(to ids.ProcID, payload []byte) {
	p := c.p
	if to == p.env.ID() || !to.Valid(p.n) || to.IsStorage() {
		panic(fmt.Sprintf("fbl: %v: invalid app destination %v", p.env.ID(), to))
	}
	p.ssn++
	p.dseqOut[to]++
	dseq := p.dseqOut[to]
	cp := append([]byte(nil), payload...)
	rec := logRec{ssn: p.ssn, payload: cp}
	p.sendLogFor(to).append(dseq, rec)
	id := ids.MsgID{Sender: p.env.ID(), SSN: p.ssn}
	if p.par.Hooks.OnSend != nil {
		p.par.Hooks.OnSend(p.env.ID(), id, to, hashBytes(cp))
	}
	p.transmit(to, dseq, rec)
}

// transmit sends one logged application message (used by both fresh sends
// and replay retransmissions). The piggyback carries every determinant not
// yet known to be stable (§2.1) whose holder set changed since we last
// offered it to this destination — the FBL estimate that stops the
// propagation of a receipt order "as soon as it has been recorded in f+1
// hosts". One generation per destination (scanGen) is the whole estimate
// in broadcast and fanout mode alike. Under output tracking a determinant
// travels once more per destination, as stable, and then never again: what
// its holder set does past f+1 is not news (det.Log, DESIGN §10).
func (p *Process) transmit(to ids.ProcID, dseq uint64, rec logRec) {
	p.piggy, p.piggyWords = p.piggy[:0], p.piggyWords[:0]
	// The scans offer views into the determinant slab; offer copies them
	// into the scratch, so nothing below can reach the slab through piggy
	// and the slab's later changes cannot reach the frame.
	gen := p.scanGen[to]
	if p.par.Outputs != nil && gen >= 0 {
		// Output tracking needs holder knowledge to travel one hop past
		// the f+1 threshold: only learning that its antecedents are
		// stable lets the entry's receiver release output (DESIGN §10).
		// The settled list holds each entry at the generation it became
		// stable (or was first recorded stable), so that hop is taken once
		// per destination. A reincarnated peer (-1) still gets the pending
		// set only.
		gen = p.dets.ScanModified(gen, p.offer)
	} else {
		gen = p.dets.ScanPendingModified(gen, p.offer)
	}
	p.scanGen[to] = gen
	piggy := p.piggy
	if TestingDropDetPiggyback {
		// Mutation hook (see TestingDropDetPiggyback): the determinants were
		// scanned and count as offered, but never leave the process — the
		// exact bug class the explorer's orphan/fidelity invariants exist to
		// catch.
		piggy = nil
	}
	if p.par.Fanout > 0 {
		// The FBL sender-side estimate (§2.1): piggybacking a determinant
		// to a destination makes that destination a holder, so count it now
		// and stop propagating once the estimate reaches f+1 (while the entry
		// is pending the change also re-offers it to this destination once,
		// carrying the wider holder set; on a stable entry it is stored and
		// nothing more). Without this, a copy's holder view stalls below the
		// threshold forever (stable copies are never re-piggybacked, so
		// nobody echoes the knowledge back) and every process keeps offering
		// every determinant it saw until checkpoint GC — the piggyback volume
		// that made n=1024 unaffordable. The estimate is optimistic about in-flight copies,
		// which is exactly the paper's stated trade; the cluster's orphan
		// checker guards the invariant in every scenario we run.
		for i := range piggy {
			p.dets.AddHolder(piggy[i].Det.Msg, to)
		}
	}
	met := p.env.Metrics()
	met.PiggybackDets += int64(len(piggy))
	for i := range piggy {
		met.PiggybackBytes += int64(32 + 8*len(piggy[i].Holders.Words()))
	}
	e := &p.tx
	*e = wire.Envelope{
		Kind:    wire.KindApp,
		FromInc: p.inc,
		SSN:     rec.ssn,
		Dseq:    dseq,
		Payload: rec.payload,
		Dets:    piggy,
	}
	if p.par.Fanout > 0 {
		// Fanout mode replaces broadcast checkpoint notices with this
		// piggyback: the receiver garbage-collects our determinants up to
		// CPRsn and its send log for us up to CPDseq — the checkpoint-time
		// watermarks, never the live counters (see cpExpDseq).
		e.CPRsn = p.cpRSN
		e.CPDseq = p.cpExpDseq[to]
	}
	p.env.Send(to, e)
}

// offer is transmit's scan callback: append a copy of the slab view e to the
// piggyback scratch.
func (p *Process) offer(e det.Entry) {
	at := len(p.piggyWords)
	p.piggyWords = append(p.piggyWords, e.Holders.Words()...)
	p.piggy = append(p.piggy, det.Entry{Det: e.Det, Holders: bitset.View(p.piggyWords[at:])})
}

// serveReplay answers a recovering process's retransmission request: resend
// every logged message destined to it with dseq beyond its restored
// watermark, in order. This covers both the messages it must re-deliver in
// logged order and the in-flight ones it never delivered.
func (p *Process) serveReplay(e *wire.Envelope) {
	to := e.From
	if !to.Valid(p.n) || to.IsStorage() {
		return
	}
	// Serve each logged message at most once per requester incarnation:
	// the periodic request retries exist to pick up entries regenerated
	// since the last service (and to survive requester restarts, which
	// change the incarnation and reset the memo). Without the memo every
	// retry would re-send the full suffix and the requester would spend
	// its recovery absorbing duplicates.
	start := e.Dseq
	if m := p.replayServed[to]; m.inc == e.FromInc && m.max > start {
		start = m.max
	}
	recs, first := p.sendLog[to].after(start)
	if len(recs) == 0 {
		return
	}
	p.env.Logf("fbl: replaying %d logged messages to %v (watermark %d, served %d)",
		len(recs), to, e.Dseq, start)
	for i, rec := range recs {
		p.transmit(to, first+uint64(i), rec)
	}
	p.replayServed[to] = servedMark{inc: e.FromInc, max: first + uint64(len(recs)) - 1}
}
