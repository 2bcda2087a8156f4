package fbl

import (
	"errors"
	"fmt"
	"time"

	"rollrec/internal/channel"
	"rollrec/internal/ids"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/vclock"
	"rollrec/internal/wire"
)

// Stable-store keys.
const (
	keyCheckpoint  = "cp"
	keyIncarnation = "inc"
)

const checkpointVersion = 1

// writeIncRecord durably records the incarnation number and the highest
// ordinal clock used, so a re-crash during recovery still produces a fresh
// incarnation and a fresh ordinal.
func (p *Process) writeIncRecord(done func()) {
	w := wire.NewWriter(12)
	w.U32(uint32(p.inc))
	w.U64(p.lam.Now())
	p.env.WriteStable(keyIncarnation, storage.Image{Data: w.Frame()}, done)
}

func parseIncRecord(img storage.Image) (ids.Incarnation, uint64, bool) {
	r := wire.NewImageReader(img.Data, img.Pad)
	inc := ids.Incarnation(r.U32())
	clk := r.U64()
	if !r.Done() {
		return 0, 0, false
	}
	return inc, clk, true
}

// encodeCheckpoint serializes the complete recoverable state: application
// snapshot, send/receive counters, the volatile send log (sender-based
// logging survives the sender's own failure through its checkpoint), and
// the incarnation vector. StatePad models the paper's ~1 MB process images:
// it is counted into the image, not written (storage.Image). The bytes are
// built once, in a fresh buffer sized by a pre-pass over the send log;
// WriteStable hands that buffer to the store (DESIGN §5).
func (p *Process) encodeCheckpoint() storage.Image {
	app := p.app.Snapshot()
	size := 1 + 4 + 8 + 1 + 8 + 8 + 20*p.n + 4 + len(app) + 4*p.n + 4
	for _, log := range p.sendLog {
		for _, rec := range log.Live() {
			size += 8 + 8 + 4 + len(rec.Payload)
		}
	}
	if p.outSeq != 0 {
		size += 8
	}
	w := wire.NewWriter(size)
	w.U8(checkpointVersion)
	w.U32(uint32(p.inc))
	w.U64(p.lam.Now())
	if p.started {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U64(uint64(p.ssn))
	w.U64(uint64(p.rsn))
	for i := 0; i < p.n; i++ {
		w.U64(p.out[i])
		w.U64(p.in.Exp[i])
		w.U32(uint32(p.incVec.Get(ids.ProcID(i))))
	}
	w.Bytes(app)
	for _, log := range p.sendLog {
		w.U32(uint32(log.Len()))
		for i, rec := range log.Live() {
			w.U64(log.Base() + uint64(i))
			w.U64(uint64(rec.SSN))
			w.Bytes(rec.Payload)
		}
	}
	w.Pad(p.par.StatePad)
	// The output-commit counter rides after the padding, and only when the
	// process ever produced output: workloads that never call Ctx.Output
	// keep byte-identical checkpoints (and thus identical storage timings
	// and golden traces) across this format extension.
	if p.outSeq != 0 {
		w.U64(p.outSeq)
	}
	return storage.Image{Data: w.Frame(), Pad: w.Padded()}
}

// decodeCheckpoint restores the state captured by encodeCheckpoint, and
// accepts nothing encodeCheckpoint could not have written: re-encoding an
// accepted image reproduces it.
func (p *Process) decodeCheckpoint(img storage.Image) error {
	r := wire.NewImageReader(img.Data, img.Pad)
	if v := r.U8(); v != checkpointVersion {
		return fmt.Errorf("fbl: checkpoint version %d", v)
	}
	p.inc = ids.Incarnation(r.U32())
	lam := r.U64()
	for p.lam.Now() < lam {
		p.lam.Witness(lam - 1)
	}
	started := r.U8()
	p.started = started == 1
	canonical := started <= 1
	p.ssn = ids.SSN(r.U64())
	p.rsn = ids.RSN(r.U64())
	vec := make([]ids.Incarnation, p.n)
	for i := 0; i < p.n; i++ {
		p.out[i] = r.U64()
		p.in.Exp[i] = r.U64()
		vec[i] = ids.Incarnation(r.U32())
		canonical = canonical && vec[i] >= 1 // incarnations start at 1
	}
	p.incVec.Merge(vclock.FromSlice(vec))
	app := r.Bytes()
	for to := range p.sendLog {
		cnt := r.ListLen()
		var base uint64
		for i := 0; i < cnt && r.Err() == nil; i++ {
			d := r.U64()
			rec := channel.Rec{SSN: ids.SSN(r.U64()), Payload: r.Bytes()}
			if i == 0 {
				base = d
			}
			canonical = canonical && d == base+uint64(i)
			if canonical { // Append panics on a broken window
				p.sendLog.Append(ids.ProcID(to), d, rec)
			}
		}
		// The window's invariant: contiguous dseqs (above), ending at the
		// last one assigned — the next send appends right after it.
		canonical = canonical && (cnt == 0 || base+uint64(cnt)-1 == p.out[to])
	}
	r.Pad()
	if !r.Done() {
		p.outSeq = r.U64() // optional tail: see encodeCheckpoint
		canonical = canonical && p.outSeq != 0
	}
	if !r.Done() {
		return fmt.Errorf("fbl: corrupt checkpoint: %v", r.Err())
	}
	if !canonical {
		return errors.New("fbl: corrupt checkpoint: not an encoding encodeCheckpoint produces")
	}
	if err := p.app.Restore(app); err != nil {
		return fmt.Errorf("fbl: restoring app snapshot: %w", err)
	}
	return nil
}

// scheduleCheckpoint arms the periodic checkpoint, staggered per process so
// the cluster's checkpoints do not synchronize.
func (p *Process) scheduleCheckpoint() {
	if p.par.CheckpointEvery <= 0 {
		return
	}
	first := p.par.CheckpointEvery +
		p.par.CheckpointEvery*time.Duration(p.env.ID()+1)/time.Duration(p.n+1)
	p.env.After(first, p.checkpointTick)
}

func (p *Process) checkpointTick() {
	p.env.After(p.par.CheckpointEvery, p.checkpointTick)
	if p.mode != ModeLive || p.cpBusy || p.blocked {
		return
	}
	p.doCheckpoint()
}

// doCheckpoint captures and durably writes the state, then announces the
// new garbage-collection watermarks.
func (p *Process) doCheckpoint() {
	cpSpan := p.env.Tracer().Begin(p.env.Now(), int32(p.env.ID()),
		trace.EvCheckpoint, trace.Tag{Inc: uint32(p.inc)})
	img := p.encodeCheckpoint()
	p.cpBusy = true
	rsnAt := p.rsn
	outAt := p.outSeq
	expAt := make([]ids.SSN, p.n)
	for i, d := range p.in.Exp {
		expAt[i] = ids.SSN(d)
	}
	p.env.WriteStable(keyCheckpoint, img, func() {
		p.env.Tracer().End(cpSpan, p.env.Now())
		p.cpBusy = false
		p.cpRSN = rsnAt
		for i, d := range expAt {
			p.cpExp[i] = uint64(d)
		}
		// Outputs captured by the now-durable checkpoint are recoverable
		// regardless of determinant replication.
		p.cpOutSeq = outAt
		p.checkOutputs()
		// Our own determinants for deliveries the checkpoint covers will
		// never be replayed again.
		p.dets.GCReceiver(p.env.ID(), rsnAt)
		notice := &wire.Envelope{
			Kind:          wire.KindCheckpointNotice,
			FromInc:       p.inc,
			CPRsn:         rsnAt,
			SSNWatermarks: expAt,
		}
		// Fanout mode: the broadcast is O(n²) cluster-wide, so the notice
		// goes to the ring successors only. Everyone else learns the
		// watermarks from the CPRsn/CPDseq piggyback on the next application
		// send (see transmit).
		p.env.Multicast(p.succ, notice)
		if p.cfg.Manetho() {
			p.env.Send(ids.StorageProc, notice)
		}
	})
}

// onCheckpointNotice garbage-collects state the peer's checkpoint covers:
// determinants of its deliveries, and our send-log entries it has consumed.
func (p *Process) onCheckpointNotice(e *wire.Envelope) {
	p.dets.GCReceiver(e.From, e.CPRsn)
	if self := int(p.env.ID()); self < len(e.SSNWatermarks) {
		p.pruneSendLog(e.From, uint64(e.SSNWatermarks[self]))
	}
}

// restore is the recovery boot path: read the incarnation record and the
// checkpoint (paying the stable-storage latency that dominates the paper's
// five-second recoveries), then start the recovery protocol.
func (p *Process) restore() {
	restoreSpan := p.env.Tracer().Begin(p.env.Now(), int32(p.env.ID()),
		trace.EvRestore, trace.Tag{})
	p.env.ReadStable(keyIncarnation, func(incData storage.Image, okInc bool) {
		p.env.ReadStable(keyCheckpoint, func(cpData storage.Image, okCP bool) {
			prevInc := ids.Incarnation(1)
			var prevClk uint64
			if okInc {
				if inc, clk, ok := parseIncRecord(incData); ok {
					prevInc, prevClk = inc, clk
				}
			}
			if okCP {
				if err := p.decodeCheckpoint(cpData); err != nil {
					panic(fmt.Sprintf("fbl: %v: %v", p.env.ID(), err))
				}
				p.cpRSN = p.rsn
				p.cpOutSeq = p.outSeq
				copy(p.cpExp, p.in.Exp)
			}
			// No checkpoint: the initial state (fresh app, Start not yet
			// run) is itself a valid recovery point.
			if p.inc < prevInc {
				p.inc = prevInc
			}
			p.inc++
			for p.lam.Now() < prevClk {
				p.lam.Witness(prevClk - 1)
			}
			ord := ids.Ordinal{Clock: p.lam.Tick(), Proc: p.env.ID()}
			p.writeIncRecord(func() {
				if tr := p.env.Metrics().CurrentRecovery(); tr != nil {
					tr.RestoredAt = p.env.Now()
					tr.Incarnation = uint32(p.inc)
				}
				p.env.Tracer().End(restoreSpan, p.env.Now())
				p.mode = ModeRecovering
				p.mgr.StartRecovery(ord, p.inc)
			})
		})
	})
}
