package fbl

import (
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/wire"
)

// StorageNode is the stable-storage pseudo-process of the f = n instance
// (paper §3.3: "we model stable storage as an additional process that never
// fails or sends a message" — it only ever replies). It accumulates
// determinants streamed by the application processes; a determinant is
// stable once it holds it, and it contributes its log to every gather.
type StorageNode struct {
	env  node.Env
	cfg  det.Config
	dets *det.Log
	// tx is the envelope every reply is built in, and view the list, a view
	// of the log, a depinfo reply's envelope points at (see Process.tx).
	tx   wire.Envelope
	view wire.DetList
}

var _ node.Process = (*StorageNode)(nil)

// NewStorageNode returns the node.Renew of the pseudo-process's slot. n and
// f must match the cluster's configuration.
func NewStorageNode(n, f int) node.Renew {
	return func(old node.Process) node.Process {
		s, ok := old.(*StorageNode)
		if !ok {
			s = &StorageNode{dets: new(det.Log)}
		}
		s.cfg = det.Config{N: n, F: f}
		return s
	}
}

// Boot implements node.Process: an empty log, in the arrays of the last.
func (s *StorageNode) Boot(env node.Env, restart bool) {
	s.env = env
	s.dets.Reset(s.cfg)
	if restart {
		panic("fbl: the storage pseudo-process never restarts")
	}
}

// Deliver implements node.Process, on a by-value copy like every handler.
func (s *StorageNode) Deliver(in *wire.Envelope) {
	ev := *in
	e := &ev
	switch e.Kind {
	case wire.KindDetsToStorage:
		acked := make([]ids.MsgID, 0, len(e.Dets))
		for _, en := range e.Dets {
			if err := s.dets.RecordHeld(en, ids.StorageProc); err != nil {
				panic("fbl: storage received conflicting determinant: " + err.Error())
			}
			acked = append(acked, en.Det.Msg)
		}
		s.tx = wire.Envelope{
			Kind:    wire.KindStorageAck,
			FromInc: 1,
			MsgIDs:  acked,
		}
		s.env.Send(e.From, &s.tx)
	case wire.KindDepRequest:
		// The storage process is one of the hosts the leader gathers from.
		// A scoped request (fanout mode) names the recovering members; only
		// their determinants matter for replay.
		s.view.SetView(s.dets.View(e.Members))
		s.tx = wire.Envelope{
			Kind:    wire.KindDepReply,
			FromInc: 1,
			Ord:     e.Ord,
			Round:   e.Round,
			DetList: &s.view,
		}
		s.env.Send(e.From, &s.tx)
	case wire.KindCheckpointNotice:
		s.dets.GCReceiver(e.From, e.CPRsn)
	default:
		// Heartbeats and broadcast recovery traffic are irrelevant here.
	}
}

// Len exposes the stored determinant count for tests.
func (s *StorageNode) Len() int { return s.dets.Len() }
