package fbl

import (
	"fmt"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/mutant"
	"rollrec/internal/recovery"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/vclock"
	"rollrec/internal/wire"
)

// This file implements recovery.Host and the deterministic replay engine.

// DepInfo implements recovery.Host: the determinant log — all of it, the
// depinfo a live process contributes to a gather (paper §3.4 step 5), or
// for a scoped gather the part the named recovering processes will replay —
// read in place.
func (p *Process) DepInfo(procs []ids.ProcID) det.View {
	if mutant.On == mutant.DepInfoPendingOnly {
		return p.dets.PendingView()
	}
	return p.dets.View(procs)
}

// DepInfoLen implements recovery.Host: the size of either reply, counted.
func (p *Process) DepInfoLen(procs []ids.ProcID) int {
	if len(procs) == 0 {
		return p.dets.Len()
	}
	return p.dets.CountForReceivers(procs)
}

// MergeIncVec implements recovery.Host: install newer incarnations so stale
// messages from rolled-back executions are rejected from now on.
func (p *Process) MergeIncVec(v []ids.Incarnation) {
	for i, inc := range v {
		if i < p.n {
			p.learnIncarnation(ids.ProcID(i), inc)
		}
	}
}

// IncVecSnapshot implements recovery.Host.
func (p *Process) IncVecSnapshot() vclock.IncVector { return p.incVec.Clone() }

// SetLiveBlocked implements recovery.Host: the Blocking and Manetho
// baselines defer application deliveries during a gather. The deferred
// interval is exactly the intrusion metric the experiments report. The
// manager calls it only on a change of its flag, which it sets only while
// live.
func (p *Process) SetLiveBlocked(blocked bool) {
	met := p.env.Metrics()
	if blocked {
		met.BlockStart(p.env.Now())
		p.blockedSpan = p.env.Tracer().Begin(p.env.Now(), int32(p.env.ID()),
			trace.EvBlocked, trace.Tag{Inc: uint32(p.inc)})
		return
	}
	met.BlockEnd(p.env.Now())
	p.env.Tracer().End(p.blockedSpan, p.env.Now())
	p.blockedSpan = 0
	p.drainDeferred()
}

// drainDeferred re-routes frames buffered while blocked or recovering.
func (p *Process) drainDeferred() {
	for len(p.deferred) > 0 {
		e := p.deferred[0]
		p.deferred = p.deferred[1:]
		// Re-check staleness: the incarnation vector may have advanced
		// while the frame sat in the buffer.
		if p.incVec.Stale(e.From, e.FromInc) {
			p.env.Metrics().Stale++
			continue
		}
		p.appPath(e)
	}
}

// StableReplyWrite implements recovery.Host (Manetho mode): synchronously
// record a recovery reply before sending it.
func (p *Process) StableReplyWrite(ord ids.Ordinal, size int, done func()) {
	key := fmt.Sprintf("recreply-%d-%d", ord.Clock, ord.Proc)
	p.env.WriteStable(key, storage.Image{Pad: size}, done)
}

// ApplyRecoveryData implements recovery.Host: merge the gathered depinfo
// (step 6) and start replaying.
func (p *Process) ApplyRecoveryData(l *wire.DetList, incVec []ids.Incarnation) {
	p.MergeIncVec(incVec)
	p.absorbDets(l)
	p.startReplay()
}

// startReplay computes the delivery schedule this process must re-consume:
// the determinants naming it as receiver beyond its checkpoint, in receive-
// sequence order (paper §2.1: "process p needs to receive message m in the
// same order as before the failure").
func (p *Process) startReplay() {
	p.replaySpan = p.env.Tracer().Begin(p.env.Now(), int32(p.env.ID()),
		trace.EvReplay, trace.Tag{Inc: uint32(p.inc)})
	if !p.started {
		// The checkpoint (or its absence) predates the application start:
		// deterministically re-run it; receivers de-duplicate its sends.
		p.started = true
		p.app.Start(appCtx{p})
	}
	sched := p.dets.ForReceiver(p.env.ID(), p.cpRSN)
	p.needed = make(map[ids.MsgID]ids.RSN, len(sched))
	p.replayBuf = make(map[ids.RSN]*wire.Envelope)
	p.nextRSN = p.cpRSN + 1
	p.maxRSN = p.cpRSN
	for i, d := range sched {
		// Recoverable determinants are contiguous in RSN: piggyback sets
		// are nested, so a later delivery's determinant cannot survive
		// while an earlier one is lost. A gap means a protocol bug.
		if d.RSN != p.cpRSN+ids.RSN(i)+1 {
			panic(fmt.Sprintf("fbl: %v: replay schedule gap at rsn %d (expected %d)",
				p.env.ID(), d.RSN, p.cpRSN+ids.RSN(i)+1))
		}
		p.needed[d.Msg] = d.RSN
		p.maxRSN = d.RSN
	}

	p.in.Request(p.env, p.inc)
	// Frames that arrived while we were restoring may already contain
	// needed messages (regenerated by other recovering processes).
	pending := p.deferred
	p.deferred = nil
	for _, e := range pending {
		if p.incVec.Stale(e.From, e.FromInc) {
			p.env.Metrics().Stale++
			continue
		}
		p.replayAccept(e)
	}
	p.armReplayRetry()
	p.checkReplayDone()
}

// armReplayRetry re-requests the retransmissions once a whole period passes
// without a replayed delivery: a frame was lost, or its sender had nothing
// to serve yet. Senders serve every request in full, so a retry while replay
// still advances would only resend what is on its way.
func (p *Process) armReplayRetry() {
	at := p.nextRSN
	p.replayT = p.env.After(recovery.RetryEvery, func() {
		if p.mgr.State() != recovery.StateReplaying {
			return
		}
		if p.nextRSN == at {
			p.in.Request(p.env, p.inc)
		}
		p.armReplayRetry()
	})
}

// replayAccept routes an application frame arriving during replay: needed
// messages are sequenced by their logged receive order; everything else
// (fresh traffic, duplicates) waits until replay completes.
func (p *Process) replayAccept(e *wire.Envelope) {
	id := ids.MsgID{Sender: e.From, SSN: e.SSN}
	rsn, ok := p.needed[id]
	if !ok {
		p.deferred = append(p.deferred, p.keep(e))
		return
	}
	delete(p.needed, id)
	p.replayBuf[rsn] = p.keep(e)
	for {
		f, ok := p.replayBuf[p.nextRSN]
		if !ok {
			break
		}
		delete(p.replayBuf, p.nextRSN)
		if want := p.in.Exp[f.From] + 1; f.Dseq != want {
			panic(fmt.Sprintf("fbl: %v: replay dseq %d from %v, want %d",
				p.env.ID(), f.Dseq, f.From, want))
		}
		p.consume(f, p.nextRSN)
		p.nextRSN++
	}
	p.checkReplayDone()
}

func (p *Process) checkReplayDone() {
	if p.mgr.State() != recovery.StateReplaying || p.nextRSN <= p.maxRSN {
		return
	}
	p.finishReplay()
}

// finishReplay transitions back to live operation: announce recovery
// completion, process traffic buffered during replay, resume checkpointing.
func (p *Process) finishReplay() {
	p.replayT.Stop()
	if tr := p.env.Metrics().CurrentRecovery(); tr != nil {
		tr.ReplayedAt = p.env.Now()
	}
	p.env.Tracer().End(p.replaySpan, p.env.Now())
	p.replaySpan = 0
	p.mgr.ReplayDone()
	if p.par.Hooks.OnLive != nil {
		p.par.Hooks.OnLive(p.env.ID(), p.inc, p.ssn, p.rsn)
	}
	// Recovery complete: outputs covered by the restored checkpoint are
	// releasable now, and replay may have re-satisfied later ones.
	if p.par.Outputs != nil {
		p.par.Outputs.CommitUpTo(p.env.ID(), p.cpOutSeq, p.env.Now())
	}
	p.checkOutputs()
	p.drainDeferred()
	p.scheduleCheckpoint()
}
