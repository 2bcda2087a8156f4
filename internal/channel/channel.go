// Package channel is the reliable-FIFO transport under the three recovery
// families (fbl, coord, optimistic). Every application frame carries a
// per-destination delivery sequence number (dseq): Out assigns them, In
// consumes them in order, de-duplicating what was already consumed and
// holding what arrived ahead of a gap, and Log is the sender's volatile copy
// of what it sent, which retransmissions are served from (fbl, optimistic).
// What a family does around that — drop stale epochs, record a snapshot's
// channel state, log a determinant, merge a dependency vector — is its own.
package channel

import (
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/wire"
)

// Out is a sender's per-destination dseq counter: Out[q] is the last dseq
// assigned to a frame for q.
type Out []uint64

// Next assigns the next dseq to a frame for to.
func (o Out) Next(to ids.ProcID) uint64 {
	o[to]++
	return o[to]
}

// Verdict is Admit's classification of an arriving frame.
type Verdict uint8

const (
	// Next: the frame is the next in order from its sender. The caller
	// consumes it (advancing Exp) and then drains Pop.
	Next Verdict = iota
	// Dup: the frame's dseq was already consumed.
	Dup
	// Held: the frame is ahead of a gap; In keeps a copy until Pop reaches
	// it.
	Held
)

// In is the receive half: the per-sender consumed watermark and the frames
// held ahead of a gap.
type In struct {
	// Exp[q] is the last dseq consumed from sender q. The caller advances it
	// as it consumes a frame (its own checkpoints restore it directly).
	Exp []uint64
	// held[q] maps dseq to a frame from q that arrived ahead of a gap; nil
	// until q first gets ahead of itself.
	held []map[uint64]*wire.Envelope
	// tx is the envelope Request builds each replay request in.
	tx wire.Envelope
}

// NewIn returns the receive half for a cluster of n processes.
func NewIn(n int) In {
	return In{Exp: make([]uint64, n), held: make([]map[uint64]*wire.Envelope, n)}
}

// Admit classifies an application frame against its sender's watermark and
// holds a copy (Keep) of one that is ahead of a gap.
func (in *In) Admit(e *wire.Envelope) Verdict {
	exp := in.Exp[e.From]
	switch {
	case e.Dseq <= exp:
		return Dup
	case e.Dseq > exp+1:
		if in.held[e.From] == nil {
			in.held[e.From] = make(map[uint64]*wire.Envelope)
		}
		in.held[e.From][e.Dseq] = e.Keep()
		return Held
	}
	return Next
}

// Pop removes and returns the held frame from q that follows Exp[q], or nil
// when there is none.
func (in *In) Pop(q ids.ProcID) *wire.Envelope {
	next := in.Exp[q] + 1
	e, ok := in.held[q][next]
	if !ok {
		return nil
	}
	delete(in.held[q], next)
	return e
}

// Reset forgets every watermark and held frame: the state of a process that
// has consumed nothing in a cluster of n, in the arrays In has.
func (in *In) Reset(n int) { in.Exp, in.held = ids.PerProc(in.Exp, n), ids.PerProc(in.held, n) }

// Request asks every peer to retransmit what it logged for us past our
// watermark for it: a replay request whose Dseq is Exp[q].
func (in *In) Request(env node.Env, inc ids.Incarnation) {
	for q, exp := range in.Exp {
		if ids.ProcID(q) == env.ID() {
			continue
		}
		in.tx = wire.Envelope{Kind: wire.KindReplayRequest, FromInc: inc, Dseq: exp}
		env.Send(ids.ProcID(q), &in.tx)
	}
}
