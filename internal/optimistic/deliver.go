package optimistic

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rollrec/internal/channel"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// This file implements the delivery path, the asynchronous log flush, and
// orphan detection with cascading rollback.

// Deliver implements node.Process on a by-value copy of the runtime's
// envelope; the buffers that outlive it (deferred, the channel's held
// frames) Keep their own.
func (p *Process) Deliver(in *wire.Envelope) {
	ev := *in
	e := &ev
	// Learn epochs from any frame.
	if int(e.From) >= 0 && int(e.From) < p.n && uint32(e.FromInc) > p.epochVec[e.From] {
		p.epochVec[e.From] = uint32(e.FromInc)
	}
	switch e.Kind {
	case wire.KindApp:
		dv := dvFromWire(e, p.n)
		stale := uint32(e.FromInc) < p.epochVec[e.From]
		for q := 0; q < p.n && !stale; q++ {
			// The incarnation end table: a message whose state depends on
			// a retracted interval belongs to an abandoned timeline and
			// must never be consumed, or the dead execution would
			// resurrect itself through in-flight traffic.
			if p.dead(ids.ProcID(q), dv[q]) {
				stale = true
			}
		}
		if stale {
			p.env.Metrics().Stale++
			return
		}
		if p.rolling {
			p.deferred = append(p.deferred, e.Keep())
			return
		}
		p.deliverApp(e)
	case wire.KindRecoveryAnnounce: // retraction in this protocol
		if p.rolling {
			// Re-examined after our own rollback completes: we may be an
			// orphan of this victim too.
			p.deferred = append(p.deferred, e.Keep())
			return
		}
		p.onRetract(e)
	case wire.KindReplayRequest:
		p.serveRetransmit(e)
	case wire.KindCheckpointNotice: // flush notice in this protocol
		p.onFlushNotice(e)
	case wire.KindHeartbeat:
		// Liveness only.
	default:
		// Kinds owned by the other protocols (FBL storage traffic,
		// coordinated-checkpointing rounds) never reach an optimistic
		// cluster; one that does is counted, not consumed.
		p.env.Metrics().Rejected++
	}
}

// deliverApp delivers in per-pair FIFO order.
func (p *Process) deliverApp(e *wire.Envelope) {
	switch p.in.Admit(e) {
	case channel.Dup:
		p.env.Metrics().Duplicate++
	case channel.Next:
		for ; e != nil; e = p.in.Pop(e.From) {
			p.applyDelivery(e.From, e.SSN, e.Dseq, e.PayloadImage(), dvFromWire(e, p.n), false)
		}
	}
}

// applyDelivery merges the incoming dependency vector, advances our state
// interval, logs the delivery, and runs the application. During replay,
// dvIn is the recorded post-delivery vector (which already counts this
// delivery in our own entry); live deliveries carry the sender's vector and
// the interval advances here.
func (p *Process) applyDelivery(from ids.ProcID, ssn ids.SSN, dseq uint64, payload storage.Image, dvIn []interval, replay bool) {
	p.in.Exp[from] = dseq
	for i := 0; i < p.n && i < len(dvIn); i++ {
		if p.dv[i].less(dvIn[i]) {
			p.dv[i] = dvIn[i]
		}
	}
	if !replay {
		self := p.env.ID()
		p.dv[self] = interval{epoch: p.epoch, index: p.dv[self].index + 1}
		// A live payload is a view of a frame the runtime reuses once
		// Deliver returns; a replayed one is already the log's.
		payload.Data = slices.Clone(payload.Data)
	}
	entry := logEntry{
		from: from, ssn: ssn, dseq: dseq,
		payload: payload,
		dv:      append([]interval(nil), p.dv...),
	}
	p.log = append(p.log, entry)
	p.env.Metrics().Delivered++
	if p.app.Handle(appCtx{p}, from, payload) != nil {
		p.env.Metrics().Rejected++
	}
}

// appCtx implements workload.Ctx.
type appCtx struct{ p *Process }

var _ workload.Ctx = appCtx{}

func (c appCtx) Self() ids.ProcID { return c.p.env.ID() }
func (c appCtx) N() int           { return c.p.n }
func (c appCtx) Work(d int64)     { c.p.env.Busy(time.Duration(d)) }

// Send transmits an application payload with the dependency vector
// piggyback; the payload, which Send takes, is the volatile buffer's record
// and serves retransmissions.
func (c appCtx) Send(to ids.ProcID, payload storage.Image) {
	p := c.p
	p.ssn++
	dseq := p.out.Next(to)
	rec := channel.Rec{SSN: p.ssn, Payload: payload}
	p.sendLog.Append(to, dseq, rec)
	// During replay the send is only recorded: re-transmitting the whole
	// re-executed prefix floods the network with duplicates (the peers
	// delivered almost all of it long ago) and queues seconds ahead of the
	// recovery control traffic on era links. Peers pull the part they are
	// actually missing — the victim's retract carries its frontier, and
	// anyone not orphaned by it answers with a replay-request watermark.
	if !p.rolling {
		p.transmit(to, dseq, rec)
	}
}

func (p *Process) transmit(to ids.ProcID, dseq uint64, rec channel.Rec) {
	p.idx, p.eps = ids.PerProc(p.idx, p.n), ids.PerProc(p.eps, p.n)
	for i, v := range p.dv {
		p.idx[i] = ids.SSN(v.index)
		p.eps[i] = ids.Incarnation(v.epoch)
	}
	p.tx = wire.Envelope{
		Kind:          wire.KindApp,
		FromInc:       ids.Incarnation(p.epoch),
		SSN:           rec.SSN,
		Dseq:          dseq,
		Payload:       rec.Payload.Data,
		Pad:           uint32(rec.Payload.Pad),
		SSNWatermarks: p.idx, // the dependency vector indices ride here
		IncVec:        p.eps, // and the per-component epochs here
	}
	p.env.Send(to, &p.tx)
}

func dvFromWire(e *wire.Envelope, n int) []interval {
	out := make([]interval, n)
	for i := 0; i < n; i++ {
		if i < len(e.SSNWatermarks) {
			out[i].index = int64(e.SSNWatermarks[i])
		}
		if i < len(e.IncVec) {
			out[i].epoch = uint32(e.IncVec[i])
		}
	}
	return out
}

// stablePrefix returns the longest log prefix that is globally stable: its
// dependency vectors are componentwise covered by every process's durable
// frontier, so no orphan truncation anywhere can ever cut into it. This is
// the recovery line; only it may drive sender-side garbage collection.
func (p *Process) stablePrefix() int {
	p.durFrontier[p.env.ID()] = int64(p.flushed)
	return sort.Search(len(p.log), func(i int) bool {
		for q := 0; q < p.n; q++ {
			if p.log[i].dv[q].index > p.durFrontier[q] {
				return true
			}
		}
		return false
	})
}

// flush writes the whole delivery log to stable storage asynchronously and
// announces the new durable frontier plus garbage-collection watermarks
// over the globally stable prefix. (A production implementation would
// append; rewriting keeps truncation after rollbacks trivial.)
func (p *Process) flush() {
	if p.flushing || p.rolling || p.flushed == len(p.log) {
		return
	}
	p.flushing = true
	upto := len(p.log)
	blob := encodeLog(p.log[:upto], p.par.StatePad)
	p.env.WriteStable(keyLog, blob, func() {
		p.flushing = false
		if upto > p.flushed {
			p.flushed = upto
		}
		p.checkOutputs()
		stable := p.stablePrefix()
		wm := ids.PerProc(p.idx, p.n)
		for _, e := range p.log[:stable] {
			if d := ids.SSN(e.dseq); d > wm[e.from] {
				wm[e.from] = d
			}
		}
		p.idx = wm
		p.tx = wire.Envelope{
			Kind:          wire.KindCheckpointNotice,
			FromInc:       ids.Incarnation(p.epoch),
			SSN:           ids.SSN(p.flushed), // durable interval frontier
			SSNWatermarks: p.idx,
		}
		p.env.Multicast(p.peers, &p.tx)
	})
}

// onFlushNotice records the peer's durable frontier and garbage-collects
// the send log to it up to its stable-prefix watermark.
func (p *Process) onFlushNotice(e *wire.Envelope) {
	self := int(p.env.ID())
	if self >= len(e.SSNWatermarks) || !e.From.Valid(p.n) || e.From.IsStorage() {
		return
	}
	p.durFrontier[e.From] = int64(e.SSN)
	p.checkOutputs()
	p.sendLog.Prune(e.From, uint64(e.SSNWatermarks[self]))
}

// serveRetransmit resends logged messages beyond the requester's
// watermark, in order.
func (p *Process) serveRetransmit(e *wire.Envelope) {
	to := e.From
	if !to.Valid(p.n) || to.IsStorage() {
		return
	}
	recs, first := p.sendLog.After(to, e.Dseq)
	for i, rec := range recs {
		p.transmit(to, first+uint64(i), rec)
	}
}

// onRetract is orphan detection: the victim announces the frontier that
// survived; if our state depends on anything beyond it, our state is based
// on a lost execution and we must roll back too (§6's orphan cascade).
func (p *Process) onRetract(e *wire.Envelope) {
	victim := e.From
	frontier := int64(e.SSN)
	newEpoch := uint32(e.FromInc)
	if !victim.Valid(p.n) || victim.IsStorage() || newEpoch == 0 {
		return
	}
	// Record the incarnation end: intervals of epochs before newEpoch
	// beyond the frontier are dead.
	p.endTable[victim] = append(p.endTable[victim], endRecord{upto: newEpoch - 1, frontier: frontier})
	if frontier < p.durFrontier[victim] {
		p.durFrontier[victim] = frontier
	}
	if !p.dead(victim, p.dv[victim]) {
		// Not an orphan. The victim replayed without re-transmitting its
		// re-executed sends; ask for the slice past our watermark (replies
		// of its durable suffix that were in flight when it crashed).
		p.tx = wire.Envelope{
			Kind:    wire.KindReplayRequest,
			FromInc: ids.Incarnation(p.epoch),
			Dseq:    p.in.Exp[victim],
		}
		p.env.Send(victim, &p.tx)
		return
	}
	// Longest log prefix whose state does not depend on the lost suffix;
	// the dependence is monotone along the log.
	keep := sort.Search(len(p.log), func(i int) bool {
		return p.dead(victim, p.log[i].dv[victim])
	})
	lost := int64(len(p.log) - keep)
	p.rolling = true
	p.epoch++
	p.epochVec[p.env.ID()] = p.epoch
	met := p.env.Metrics()
	met.Rollbacks++
	met.LostDeliveries += lost
	p.env.Tracer().Instant(p.env.Now(), int32(p.env.ID()), trace.EvRollback,
		trace.Tag{Inc: p.epoch, Arg: lost})
	p.persistEpoch()
	kept := append([]logEntry(nil), p.log[:keep]...)
	// Truncate the durable log first so a crash cannot resurrect the
	// orphaned suffix.
	p.env.WriteStable(keyLog, encodeLog(kept, p.par.StatePad), func() {
		p.flushed = len(kept)
		p.rebuildFrom(kept)
		p.flushed = len(kept)
		p.broadcastRetract()
		p.finishRollback()
	})
}

// Introspection for tests and experiments.

// Interval returns the current state-interval index (delivery count on the
// surviving timeline).
func (p *Process) Interval() int64 { return p.selfIndex() }

// Epoch returns the rollback epoch.
func (p *Process) Epoch() uint32 { return p.epoch }

// App returns the hosted application.
func (p *Process) App() workload.App { return p.app }

// Phase is recovering while a rollback is in progress, else live.
func (p *Process) Phase() node.Phase {
	if p.rolling {
		return node.PhaseRecovering
	}
	return node.PhaseLive
}

// LogSizes returns the delivery log's length and how many of its entries
// are not yet flushed to stable storage.
func (p *Process) LogSizes() (journal, lag int) { return len(p.log), len(p.log) - p.flushed }

// encodeLog serializes the delivery log into a fresh, exactly-sized buffer;
// pad is counted into the image, not written (storage.Image), and so is a
// logged payload's padding (wire.Writer.ImageBytes).
func encodeLog(entries []logEntry, pad int) storage.Image {
	size := 4 + 4
	for _, e := range entries {
		size += 4 + 8 + 8 + wire.ImageBytesLen(e.payload) + 4 + 12*len(e.dv)
	}
	w := wire.NewWriter(size)
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.I32(int32(e.from))
		w.U64(uint64(e.ssn))
		w.U64(e.dseq)
		w.ImageBytes(e.payload)
		w.U32(uint32(len(e.dv)))
		for _, v := range e.dv {
			w.U32(v.epoch)
			w.U64(uint64(v.index))
		}
	}
	w.Pad(pad)
	return storage.Image{Data: w.Frame(), Pad: w.Padded()}
}

// decodeLog parses a serialized delivery log, payloads as logged.
func decodeLog(img storage.Image) ([]logEntry, error) {
	r := wire.NewImageReader(img.Data, img.Pad)
	cnt := r.ListLen()
	out := make([]logEntry, 0, min(cnt, 4096))
	for i := 0; i < cnt && r.Err() == nil; i++ {
		var e logEntry
		e.from = ids.ProcID(r.I32())
		e.ssn = ids.SSN(r.U64())
		e.dseq = r.U64()
		e.payload = r.ImageBytes()
		dn := r.ListLen()
		e.dv = make([]interval, 0, min(dn, 4096))
		for j := 0; j < dn && r.Err() == nil; j++ {
			e.dv = append(e.dv, interval{epoch: r.U32(), index: int64(r.U64())})
		}
		out = append(out, e)
	}
	r.Pad()
	if !r.Done() {
		return nil, fmt.Errorf("optimistic: corrupt stable log: %v", r.Err())
	}
	return out, nil
}
