package coord

import (
	"fmt"

	"rollrec/internal/ids"
	"rollrec/internal/wire"
)

// This file implements the Chandy–Lamport snapshot machinery and the
// snapshot blob codec.

// startSnapshot begins a new global snapshot (initiator only, process 0).
func (p *Process) startSnapshot() {
	if p.snapActive || p.rollingBack {
		return // previous snapshot still in flight; skip this period
	}
	// Snapshot ids must stay monotone across the initiator's own crashes.
	if p.snapID <= p.committedID {
		p.snapID = p.committedID
	}
	p.snapID++
	p.beginLocalSnapshot(p.snapID, ids.Nobody)
	p.initiatorWaiting = make(map[ids.ProcID]bool, p.n-1)
	for q := 1; q < p.n; q++ {
		p.initiatorWaiting[ids.ProcID(q)] = true
	}
	p.maybeCommit()
}

// beginLocalSnapshot records local state and floods markers. exclude is the
// channel the triggering marker arrived on (already closed).
func (p *Process) beginLocalSnapshot(id uint32, exclude ids.ProcID) {
	p.snapActive = true
	p.snapID = id
	p.localState = p.encodeLocalState()
	p.coverOutputs(id)
	p.recording = make([]bool, p.n)
	p.recorded = make([][]recordedMsg, p.n)
	p.openChans = 0
	for q := 0; q < p.n; q++ {
		pid := ids.ProcID(q)
		if pid == p.env.ID() || pid == exclude {
			continue
		}
		p.recording[q] = true
		p.openChans++
	}
	for q := 0; q < p.n; q++ {
		pid := ids.ProcID(q)
		if pid == p.env.ID() {
			continue
		}
		p.env.Send(pid, &wire.Envelope{
			Kind:    wire.KindMarker,
			FromInc: ids.Incarnation(p.epoch),
			Round:   id,
		})
	}
	if p.openChans == 0 {
		p.completeLocalSnapshot()
	}
}

// onMarker processes a snapshot marker per Chandy–Lamport.
func (p *Process) onMarker(e *wire.Envelope) {
	switch {
	case !p.snapActive || e.Round > p.snapID:
		// First marker of a new snapshot: channel from the sender is
		// empty for this snapshot.
		p.beginLocalSnapshot(e.Round, e.From)
	case e.Round == p.snapID:
		from := int(e.From)
		if from >= 0 && from < p.n && p.recording[from] {
			p.recording[from] = false
			p.openChans--
			if p.openChans == 0 {
				p.completeLocalSnapshot()
			}
		}
	default:
		// Marker from an abandoned snapshot: ignore.
	}
}

// completeLocalSnapshot persists the local snapshot and acknowledges the
// initiator.
func (p *Process) completeLocalSnapshot() {
	p.snapActive = false
	id := p.snapID
	blob := p.encodeSnapshotBlob()
	p.localState = nil
	p.env.WriteStable(fmt.Sprintf("%s%d", keySnapPrefix, id), blob, func() {
		if p.env.ID() == 0 {
			p.onSnapState(&wire.Envelope{Kind: wire.KindSnapState, From: 0, Round: id})
			return
		}
		p.env.Send(0, &wire.Envelope{
			Kind:    wire.KindSnapState,
			FromInc: ids.Incarnation(p.epoch),
			Round:   id,
		})
	})
}

// onSnapState is the initiator collecting acknowledgments.
func (p *Process) onSnapState(e *wire.Envelope) {
	if p.env.ID() != 0 || e.Round != p.snapID {
		return
	}
	if e.From != 0 {
		delete(p.initiatorWaiting, e.From)
	}
	p.maybeCommit()
}

func (p *Process) maybeCommit() {
	if p.env.ID() != 0 || p.snapActive || len(p.initiatorWaiting) != 0 || p.snapID == 0 {
		return
	}
	id := p.snapID
	p.initiatorWaiting = nil
	for q := 1; q < p.n; q++ {
		p.env.Send(ids.ProcID(q), &wire.Envelope{
			Kind:    wire.KindSnapCommit,
			FromInc: ids.Incarnation(p.epoch),
			Round:   id,
		})
	}
	p.commit(id)
}

// commit records snapshot id as the recovery line.
func (p *Process) commit(id uint32) {
	if id <= p.committedID {
		return
	}
	p.committedID = id
	p.sinceSnap = 0
	p.persistEpoch()
	p.commitOutputs(id)
	p.env.Logf("coord: snapshot %d committed", id)
}

func parseCommitted(data []byte) (id, epoch uint32) {
	r := wire.NewReader(data)
	id = r.U32()
	epoch = r.U32()
	if r.Err() != nil {
		// Self-written state; a short frame means no snapshot committed.
		return 0, 0
	}
	return id, epoch
}

// encodeLocalState captures the process state at marker time, in a fresh
// buffer of exactly its size.
func (p *Process) encodeLocalState() []byte {
	app := p.app.Snapshot()
	size := 4 + 8 + 16*p.n + 4 + len(app) + 4 + p.par.StatePad
	if p.outSeq != 0 {
		size += 8
	}
	w := wire.NewWriter(size)
	w.U32(p.epoch)
	w.U64(uint64(p.delivered))
	for i := 0; i < p.n; i++ {
		w.U64(p.dseqOut[i])
		w.U64(p.expDseq[i])
	}
	w.Bytes(app)
	w.Zeros(p.par.StatePad)
	// Optional tail (see the FBL checkpoint codec): present only when the
	// process ever produced output, so output-free runs keep byte-identical
	// snapshot blobs and storage timings.
	if p.outSeq != 0 {
		w.U64(p.outSeq)
	}
	return w.Frame()
}

// encodeSnapshotBlob appends the recorded channel messages to the local
// state captured at marker time, in the exactly-sized buffer the store keeps.
func (p *Process) encodeSnapshotBlob() []byte {
	size, total := 4+len(p.localState)+4, 0
	for _, ch := range p.recorded {
		total += len(ch)
		for _, m := range ch {
			size += 4 + 8 + 8 + 4 + len(m.payload)
		}
	}
	w := wire.NewWriter(size)
	w.Bytes(p.localState)
	w.U32(uint32(total))
	for _, ch := range p.recorded {
		for _, m := range ch {
			w.I32(int32(m.from))
			w.U64(uint64(m.ssn))
			w.U64(m.dseq)
			w.Bytes(m.payload)
		}
	}
	return w.Frame()
}

// decodeSnapshot restores the local state and returns the recorded
// channel messages for re-injection.
func (p *Process) decodeSnapshot(blob []byte) []recordedMsg {
	r := wire.NewReader(blob)
	state := wire.NewReader(r.Bytes())
	_ = state.U32() // epoch at capture; superseded by the rollback epoch
	p.delivered = int64(state.U64())
	for i := 0; i < p.n; i++ {
		p.dseqOut[i] = state.U64()
		p.expDseq[i] = state.U64()
	}
	app := state.Bytes()
	state.Bytes() // padding
	if !state.Done() {
		p.outSeq = state.U64() // optional tail: see encodeLocalState
	}
	if err := p.app.Restore(app); err != nil {
		panic(fmt.Sprintf("coord: %v: restoring app: %v", p.env.ID(), err))
	}
	p.started = true
	n := r.ListLen()
	out := make([]recordedMsg, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var m recordedMsg
		m.from = ids.ProcID(r.I32())
		m.ssn = ids.SSN(r.U64())
		m.dseq = r.U64()
		m.payload = r.Bytes()
		out = append(out, m)
	}
	if r.Err() != nil {
		panic(fmt.Sprintf("coord: %v: corrupt snapshot: %v", p.env.ID(), r.Err()))
	}
	return out
}
