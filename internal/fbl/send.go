package fbl

import (
	"fmt"
	"time"

	"rollrec/internal/channel"
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/mutant"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
)

// appCtx implements workload.Ctx on top of the protocol process.
type appCtx struct{ p *Process }

func (c appCtx) Self() ids.ProcID { return c.p.env.ID() }
func (c appCtx) N() int           { return c.p.n }
func (c appCtx) Work(d int64)     { c.p.env.Busy(time.Duration(d)) }

// Send is the application send path: assign identifiers, log the message in
// the sender's volatile store (sender-based message logging), attach the
// causal piggyback, and transmit. The payload the app hands over is the log
// record itself (workload.Ctx.Send takes it).
func (c appCtx) Send(to ids.ProcID, payload storage.Image) {
	p := c.p
	if to == p.env.ID() || !to.Valid(p.n) || to.IsStorage() {
		panic(fmt.Sprintf("fbl: %v: invalid app destination %v", p.env.ID(), to))
	}
	p.ssn++
	dseq := p.out.Next(to)
	rec := channel.Rec{SSN: p.ssn, Payload: payload}
	p.sendLog.Append(to, dseq, rec)
	id := ids.MsgID{Sender: p.env.ID(), SSN: p.ssn}
	if p.par.Hooks.OnSend != nil {
		p.par.Hooks.OnSend(p.env.ID(), id, to, PayloadHash(payload))
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
func (p *Process) transmit(to ids.ProcID, dseq uint64, rec channel.Rec) {
	// The scans offer views into the determinant slab; offer encodes each
	// into the list, so the slab's later changes cannot reach the frame.
	p.txDets.Reset()
	p.txIDs, p.txBytes = p.txIDs[:0], 0
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
	if mutant.On == mutant.DropDetPiggyback {
		// Mutation hook (see mutant.DropDetPiggyback): the determinants were
		// scanned and count as offered, but never leave the process — the
		// exact bug class the explorer's orphan/fidelity invariants exist to
		// catch.
		p.txDets.Reset()
		p.txIDs, p.txBytes = p.txIDs[:0], 0
	}
	// The FBL sender-side estimate (§2.1), fanout mode only: piggybacking a
	// determinant to a destination makes that destination a holder, so
	// count it now and stop propagating once the estimate reaches f+1
	// (while the entry is pending the change also re-offers it to this
	// destination once, carrying the wider holder set; on a stable entry it
	// is stored and nothing more). Without this, a copy's holder view stalls
	// below the threshold forever (stable copies are never re-piggybacked,
	// so nobody echoes the knowledge back) and every process keeps offering
	// every determinant it saw until checkpoint GC — the piggyback volume
	// that made n=1024 unaffordable. The estimate is optimistic about
	// in-flight copies, which is exactly the paper's stated trade; the
	// cluster's orphan checker guards the invariant in every scenario we
	// run.
	for _, id := range p.txIDs {
		p.dets.AddHolder(id, to)
	}
	met := p.env.Metrics()
	met.PiggybackDets += int64(p.txDets.Len())
	met.PiggybackBytes += p.txBytes
	e := &p.tx
	*e = wire.Envelope{
		Kind:    wire.KindApp,
		FromInc: p.inc,
		SSN:     rec.SSN,
		Dseq:    dseq,
		Payload: rec.Payload.Data,
		Pad:     uint32(rec.Payload.Pad),
		DetList: &p.txDets,
	}
	if p.par.Fanout > 0 {
		// Fanout mode replaces broadcast checkpoint notices with this
		// piggyback: the receiver garbage-collects our determinants up to
		// CPRsn and its send log for us up to CPDseq — the checkpoint-time
		// watermarks, never the live counters (see cpExp).
		e.CPRsn = p.cpRSN
		e.CPDseq = p.cpExp[to]
	}
	p.env.Send(to, e)
}

// offer is transmit's scan callback: encode the slab view e into the list
// and count it; fanout mode keeps its id, as the scan must not change the log.
func (p *Process) offer(e det.Entry) {
	p.txDets.Add(e)
	p.txBytes += int64(32 + 8*len(e.Holders.Words()))
	if p.par.Fanout > 0 {
		p.txIDs = append(p.txIDs, e.Det.Msg)
	}
}

// serveReplay answers a recovering process's retransmission request: resend
// every logged message destined to it with dseq beyond its restored
// watermark, in order. This covers both the messages it must re-deliver in
// logged order and the in-flight ones it never delivered. Every request is
// served in full: a retry is how the requester gets back a frame the network
// lost, and the requester retries only when its replay stalls
// (armReplayRetry).
func (p *Process) serveReplay(e *wire.Envelope) {
	to := e.From
	if !to.Valid(p.n) || to.IsStorage() {
		return
	}
	recs, first := p.sendLog.After(to, e.Dseq)
	for i, rec := range recs {
		p.transmit(to, first+uint64(i), rec)
	}
}
