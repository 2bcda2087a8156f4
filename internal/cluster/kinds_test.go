package cluster

import (
	"testing"
	"time"

	"rollrec/internal/det"
	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// vocabulary is what each family's Deliver consumes. Every other kind must
// be counted in metrics.Proc.Rejected: a kind added for one protocol and
// delivered to another is never dropped silently.
var vocabulary = map[Family][]wire.Kind{
	FamilyFBL: {
		wire.KindApp, wire.KindCheckpointNotice, wire.KindStorageAck, wire.KindHeartbeat, wire.KindReplayRequest,
		// The recovery manager's.
		wire.KindRecoveryAnnounce, wire.KindIncRequest, wire.KindIncReply, wire.KindDepRequest,
		wire.KindDepReply, wire.KindRecoveryData, wire.KindRecoveryComplete, wire.KindRecovered,
	},
	FamilyCoordinated: {
		wire.KindApp, wire.KindHeartbeat, wire.KindMarker, wire.KindSnapState, wire.KindSnapCommit, wire.KindRollback,
	},
	FamilyOptimistic: {
		wire.KindApp, wire.KindHeartbeat, wire.KindRecoveryAnnounce, wire.KindReplayRequest, wire.KindCheckpointNotice,
	},
}

// storageConsumes and storageIgnores partition the kinds for the f = n
// storage pseudo-process, which never sends on its own and counts nothing:
// it answers two kinds, garbage-collects on a third, and drops the rest by
// name — heartbeats and recovery broadcasts, and the kinds no process
// addresses to it.
var (
	storageConsumes = []wire.Kind{wire.KindDetsToStorage, wire.KindDepRequest, wire.KindCheckpointNotice}
	storageIgnores  = []wire.Kind{
		wire.KindHeartbeat, wire.KindRecoveryAnnounce, wire.KindRecoveryComplete, wire.KindRecovered,
		wire.KindApp, wire.KindStorageAck, wire.KindIncRequest, wire.KindIncReply, wire.KindDepReply,
		wire.KindRecoveryData, wire.KindReplayRequest,
		wire.KindMarker, wire.KindSnapState, wire.KindSnapCommit, wire.KindRollback,
	}
)

// kindFrame is a well-formed frame of kind k from p1's first incarnation:
// first in its channel, ordinal set, and a payload the inert application
// accepts (ttl 0, a body, no padding).
func kindFrame(t *testing.T, k wire.Kind) *wire.Envelope {
	t.Helper()
	e, err := wire.Decode(wire.Encode(&wire.Envelope{
		Kind: k, From: 1, To: 0, FromInc: 1, SSN: 1, Dseq: 1,
		Ord: ids.Ordinal{Clock: 1, Proc: 1}, Payload: make([]byte, 16),
	}))
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	return e
}

// liveCluster is an idle n = 3 cluster of fam, warmed past boot; FBL runs
// the f = n instance, so the storage pseudo-process is up too.
func liveCluster(fam Family) *Cluster {
	c := New(Config{
		Family: fam, N: 3, F: 3, Seed: 1, HW: fastHW(),
		App:             workload.NewRandomPeer(0, 0, 0, 0),
		CheckpointEvery: time.Hour,
	})
	c.Run(100 * time.Millisecond)
	return c
}

// TestForeignKindsAreCounted delivers a frame of every wire.Kind to a live
// process of each family, one fresh cluster per frame: a kind outside the
// family's vocabulary raises Rejected by exactly one, a kind inside it by
// nothing, and none panics.
func TestForeignKindsAreCounted(t *testing.T) {
	for fam, vocab := range vocabulary {
		speaks := make(map[wire.Kind]bool)
		for _, k := range vocab {
			speaks[k] = true
		}
		for k := wire.Kind(1); int(k) < wire.KindCount; k++ {
			c := liveCluster(fam)
			m := c.Metrics(0)
			before := m.Rejected
			c.K.ProcOf(0).Deliver(kindFrame(t, k))
			want := int64(1)
			if speaks[k] {
				want = 0
			}
			if got := m.Rejected - before; got != want {
				t.Errorf("%s: a %v frame raised Rejected by %d, want %d", fam, k, got, want)
			}
		}
	}
}

// TestStorageNodeKinds pins the storage pseudo-process's dispatcher: every
// kind is either consumed or ignored by name, an ignored one sends nothing,
// and none panics or is counted.
func TestStorageNodeKinds(t *testing.T) {
	named := make(map[wire.Kind]bool)
	for _, k := range append(append([]wire.Kind(nil), storageConsumes...), storageIgnores...) {
		if named[k] {
			t.Fatalf("%v is both consumed and ignored", k)
		}
		named[k] = true
	}
	for k := wire.Kind(1); int(k) < wire.KindCount; k++ {
		if !named[k] {
			t.Errorf("%v: the storage node neither consumes nor deliberately ignores it", k)
		}
	}
	for _, k := range storageIgnores {
		c := liveCluster(FamilyFBL)
		m := c.Metrics(ids.StorageProc)
		before := *m
		c.K.ProcOf(ids.StorageProc).Deliver(kindFrame(t, k))
		if m.MsgsSent != before.MsgsSent || m.Rejected != before.Rejected {
			t.Errorf("%v: the storage node sent %v (before %v), rejected %d (before %d)",
				k, m.MsgsSent, before.MsgsSent, m.Rejected, before.Rejected)
		}
	}
	// The consumed kinds: p1's delivery of one of p2's messages is stored and
	// acknowledged, a gather is answered, and p1's checkpoint covering that
	// delivery collects it.
	c := liveCluster(FamilyFBL)
	m := c.Metrics(ids.StorageProc)
	st := c.K.ProcOf(ids.StorageProc).(*fbl.StorageNode)
	held := st.Len()
	dets := kindFrame(t, wire.KindDetsToStorage)
	dets.Dets = []det.Entry{{Det: det.Determinant{Msg: ids.MsgID{Sender: 2, SSN: 1}, Receiver: 1, RSN: 1}}}
	rx, err := wire.Decode(wire.Encode(dets)) // as the runtime delivers it
	if err != nil {
		t.Fatal(err)
	}
	st.Deliver(rx)
	stored := st.Len() - held
	st.Deliver(kindFrame(t, wire.KindDepRequest))
	notice := kindFrame(t, wire.KindCheckpointNotice)
	notice.CPRsn = 1
	st.Deliver(notice)
	if stored != 1 || st.Len() != held || m.MsgsSent[wire.KindStorageAck] != 1 || m.MsgsSent[wire.KindDepReply] != 1 || m.Rejected != 0 {
		t.Errorf("the storage node stored %d, kept %d of %d after the notice, answered %d acks and %d dep replies (rejected %d); want 1, %d, one each",
			stored, st.Len(), held, m.MsgsSent[wire.KindStorageAck], m.MsgsSent[wire.KindDepReply], m.Rejected, held)
	}
}
