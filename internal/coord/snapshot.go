package coord

import (
	"errors"
	"fmt"

	"rollrec/internal/ids"
	"rollrec/internal/storage"
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
	p.snap = p.encodeLocalState()
	p.coverOutputs(id)
	// The last snapshot's arrays, each channel's cut to [:0] to keep its own:
	// encodeSnapshotBlob copied every message into that snapshot's image
	// before this one began, and an abandoned snapshot's are dropped.
	p.recording = ids.PerProc(p.recording, p.n)
	if len(p.recorded) != p.n {
		p.recorded = make([][]recordedMsg, p.n)
	}
	for q := range p.recorded {
		p.recorded[q] = p.recorded[q][:0]
	}
	p.openChans = 0
	for q := 0; q < p.n; q++ {
		pid := ids.ProcID(q)
		if pid == p.env.ID() || pid == exclude {
			continue
		}
		p.recording[q] = true
		p.openChans++
	}
	p.env.Multicast(p.peers, p.control(wire.KindMarker, id))
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
	p.snap = nil
	p.env.WriteStable(fmt.Sprintf("%s%d", keySnapPrefix, id), blob, func() {
		if p.env.ID() == 0 {
			p.onSnapState(&wire.Envelope{Kind: wire.KindSnapState, From: 0, Round: id})
			return
		}
		p.env.Send(0, p.control(wire.KindSnapState, id))
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
	p.env.Multicast(p.peers, p.control(wire.KindSnapCommit, id)) // we are the initiator, process 0
	p.commit(id)
}

// control builds, in tx, the kind frame of snapshot round in this epoch: a
// marker, an acknowledgment or a commit.
func (p *Process) control(kind wire.Kind, round uint32) *wire.Envelope {
	p.tx = wire.Envelope{Kind: kind, FromInc: ids.Incarnation(p.epoch), Round: round}
	return &p.tx
}

// commit records snapshot id as the recovery line.
func (p *Process) commit(id uint32) {
	if id <= p.committedID {
		return
	}
	p.committedID = id
	p.persistEpoch()
	p.commitOutputs(id)
}

func parseCommitted(img storage.Image) (id, epoch uint32) {
	r := wire.NewReader(img.Data)
	id = r.U32()
	epoch = r.U32()
	if r.Err() != nil {
		// Self-written state; a short frame means no snapshot committed.
		return 0, 0
	}
	return id, epoch
}

// encodeLocalState starts the snapshot image with the process state at
// marker time, length-prefixed; encodeSnapshotBlob finishes the same buffer.
// StatePad is counted into the image, not written (storage.Image).
func (p *Process) encodeLocalState() *wire.Writer {
	app := p.app.Snapshot()
	size := 4 + 8 + 16*p.n + 4 + len(app) + 4
	if p.outSeq != 0 {
		size += 8
	}
	w := wire.NewWriter(4 + size + 4) // exact when no channel recorded anything
	w.U32(uint32(size + p.par.StatePad))
	w.U32(p.epoch)
	w.U64(uint64(p.delivered))
	for i := 0; i < p.n; i++ {
		w.U64(p.out[i])
		w.U64(p.in.Exp[i])
	}
	w.Bytes(app)
	w.Pad(p.par.StatePad)
	// Optional tail (see the FBL checkpoint codec): present only when the
	// process ever produced output, so output-free runs keep byte-identical
	// snapshot blobs and storage timings.
	if p.outSeq != 0 {
		w.U64(p.outSeq)
	}
	return w
}

// encodeSnapshotBlob appends the recorded channel messages to the local
// state captured at marker time and returns the image the store keeps. A
// message's padding is counted, like StatePad (wire.Writer.ImageBytes).
func (p *Process) encodeSnapshotBlob() storage.Image {
	w, total := p.snap, 0
	for _, ch := range p.recorded {
		total += len(ch)
	}
	w.U32(uint32(total))
	for _, ch := range p.recorded {
		for _, m := range ch {
			w.I32(int32(m.from))
			w.U64(uint64(m.ssn))
			w.U64(m.dseq)
			w.ImageBytes(m.payload)
		}
	}
	return storage.Image{Data: w.Frame(), Pad: w.Padded()}
}

// decodeSnapshot restores the local state and returns the recorded
// channel messages for re-injection, each payload as it was recorded.
func (p *Process) decodeSnapshot(img storage.Image) ([]recordedMsg, error) {
	r := wire.NewImageReader(img.Data, img.Pad)
	// The prefix counts StatePad's zeros: no ListLen, but checked (exact).
	stateLen := int(r.U32())
	stateEnd := r.Pos() + stateLen
	_ = r.U32() // epoch at capture; superseded by the rollback epoch
	p.delivered = int64(r.U64())
	for i := 0; i < p.n; i++ {
		p.out[i] = r.U64()
		p.in.Exp[i] = r.U64()
	}
	app := r.Bytes()
	r.Pad()
	tail := r.Pos() < stateEnd
	if tail {
		p.outSeq = r.U64() // optional tail: see encodeLocalState
	}
	// The state section is exactly as long as its prefix says, and a zero
	// tail is never written.
	exact := r.Pos() == stateEnd && (!tail || p.outSeq != 0)
	n := r.ListLen()
	out := make([]recordedMsg, 0, min(n, 4096))
	for i := 0; i < n && r.Err() == nil; i++ {
		var m recordedMsg
		m.from = ids.ProcID(r.I32())
		m.ssn = ids.SSN(r.U64())
		m.dseq = r.U64()
		m.payload = r.ImageBytes()
		out = append(out, m)
	}
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("coord: corrupt snapshot: %w", r.Err())
	case !exact || !r.Done():
		return nil, errors.New("coord: corrupt snapshot: section lengths do not add up")
	}
	if err := p.app.Restore(app); err != nil {
		return nil, fmt.Errorf("coord: restoring app: %w", err)
	}
	return out, nil
}

// mustDecodeSnapshot is decodeSnapshot for the rollback paths: the image is
// self-written, so failing to decode it is a bug.
func (p *Process) mustDecodeSnapshot(img storage.Image) []recordedMsg {
	out, err := p.decodeSnapshot(img)
	if err != nil {
		panic(fmt.Sprintf("%v: %v", p.env.ID(), err))
	}
	return out
}
