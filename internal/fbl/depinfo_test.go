package fbl

import (
	"math"
	"runtime"
	"testing"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/wire"
)

// wireEnv sends the way the simulator does: the envelope is encoded at call
// time and only the last frame and its length are kept.
type wireEnv struct {
	*fakeEnv
	frame int
	last  []byte
}

func (w *wireEnv) Send(_ ids.ProcID, e *wire.Envelope) {
	w.last = wire.Encode(e)
	w.frame = len(w.last)
}

// allocated returns the least fn allocates in one of runs calls, after a
// warm-up one, in bytes and objects: whatever else allocates meanwhile (the
// race detector, the test runner) only ever adds.
func allocated(runs int, fn func()) (bytes, objects uint64) {
	fn()
	bytes, objects = math.MaxUint64, math.MaxUint64
	var m0, m1 runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		bytes, objects = min(bytes, m1.TotalAlloc-m0.TotalAlloc), min(objects, m1.Mallocs-m0.Mallocs)
	}
	return bytes, objects
}

var frameSink []byte

// TestDepInfoReplyAllocs is the gate on the live side of a gather (paper
// §3.4 step 5): a process answers a depinfo request with a frame written
// from a view of its log, a walk over the log in place. A reply allocates
// its frame and nothing else (the envelope is the manager's tx), whether it
// carries the whole 1 024-entry log or is scoped to a receiver with no
// entries. Collecting the log first cost a 56-byte entry, a holder word and a
// 4-byte slot index more per entry.
func TestDepInfoReplyAllocs(t *testing.T) {
	const n, size, runs = 32, 1024, 20
	env := &wireEnv{fakeEnv: newFakeEnv(0, n)}
	p := New(testParams(1))(nil).(*Process)
	p.Boot(env, false)
	for i := 0; i < size; i++ {
		recv := ids.ProcID(i % (n - 1)) // p31 delivered nothing
		if err := p.dets.Record(det.Entry{
			Det:     det.Determinant{Msg: ids.MsgID{Sender: ids.ProcID((7 * i) % n), SSN: ids.SSN(i + 1)}, Receiver: recv, RSN: ids.RSN(i + 1)},
			Holders: bitset.FromSlice([]int{int(recv), i % n}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	request := func(members ...ids.ProcID) *wire.Envelope {
		return &wire.Envelope{
			Kind: wire.KindDepRequest, From: 1, FromInc: 2, Round: 1, Ord: ids.Ordinal{Clock: 5, Proc: 1},
			IncVec: make([]ids.Incarnation, n), Members: members,
		}
	}
	// The bytes a frame of the reply's length costs on its own: the
	// allocator rounds it up to its size class.
	frameOnly := func() uint64 {
		b, _ := allocated(runs, func() { frameSink = make([]byte, 0, env.frame) })
		return b
	}
	empty := request(n - 1)
	scopedBytes, scopedObjs := allocated(runs, func() { p.Deliver(empty) })
	if env.frame == 0 {
		t.Fatal("no reply sent")
	}
	frameBytes := frameOnly()
	fixed := scopedBytes - frameBytes
	t.Logf("scoped: %d objects, %d B beyond a %d-byte frame", scopedObjs, fixed, env.frame)
	if scopedObjs != 1 || fixed > 0 {
		t.Errorf("a reply scoped to a receiver with no entries allocates %d objects, %d B beyond its %d-byte frame; want 1 (the frame) and nothing more",
			scopedObjs, fixed, env.frame)
	}

	whole := request()
	wholeBytes, wholeObjs := allocated(runs, func() { p.Deliver(whole) })
	frameBytes = frameOnly()
	if env.frame < 33*size { // an entry with a one-word holder set is 33 bytes on the wire
		t.Fatalf("the unscoped reply is a %d-byte frame: it did not carry the log", env.frame)
	}
	t.Logf("whole: %d objects, %d B for a %d-byte frame", wholeObjs, wholeBytes, env.frame)
	if wholeObjs != 1 || wholeBytes > frameBytes {
		t.Errorf("an unscoped reply over %d entries allocates %d objects, %d B for a %d-byte frame of %d B; want 1 (the frame) and nothing more",
			size, wholeObjs, wholeBytes, env.frame, frameBytes)
	}
}

// TestStorageFlushAllocs: in the f = n instance a process streams what
// storage does not hold yet in a frame written from a view of its pending
// list. The flush allocates that frame and nothing else, however long the
// backlog.
func TestStorageFlushAllocs(t *testing.T) {
	const n, size, runs = 8, 1024, 20
	env := &wireEnv{fakeEnv: newFakeEnv(0, n)}
	p := New(testParams(n))(nil).(*Process)
	p.Boot(env, false)
	for i := 0; i < size; i++ {
		recv := ids.ProcID(i % n)
		if err := p.dets.Record(det.Entry{
			Det:     det.Determinant{Msg: ids.MsgID{Sender: ids.ProcID((3 * i) % n), SSN: ids.SSN(i + 1)}, Receiver: recv, RSN: ids.RSN(i + 1)},
			Holders: bitset.FromSlice([]int{int(recv), (i + 1) % n}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.dets.PendingCount(); got != size {
		t.Fatalf("%d entries pending, want all %d: none is held by storage", got, size)
	}
	bytes, objs := allocated(runs, p.flushToStorage)
	if env.frame < 33*size { // an entry with a one-word holder set is 33 bytes on the wire
		t.Fatalf("the flush is a %d-byte frame: it did not carry the backlog", env.frame)
	}
	frameBytes, _ := allocated(runs, func() { frameSink = make([]byte, 0, env.frame) })
	t.Logf("flush: %d objects, %d B for a %d-byte frame", objs, bytes, env.frame)
	if objs != 1 || bytes > frameBytes {
		t.Errorf("flushing %d pending entries allocates %d objects, %d B for a %d-byte frame of %d B; want 1 (the frame) and nothing more",
			size, objs, bytes, env.frame, frameBytes)
	}
}

// TestStorageNodeDeliverAllocs: the f = n storage node merges a streamed
// batch where it lies in the frame and builds its acknowledgement's ids in
// an array it keeps, so on a warm node — the entries known, the array grown
// — a batch of 64 costs the ack's frame and nothing else. Building the ids
// in a fresh slice per batch cost a second object.
func TestStorageNodeDeliverAllocs(t *testing.T) {
	const n, size, runs = 8, 64, 20
	env := &wireEnv{fakeEnv: newFakeEnv(ids.StorageProc, n)}
	s := NewStorageNode(n, n)(nil).(*StorageNode)
	s.Boot(env, false)
	batch := &wire.Envelope{Kind: wire.KindDetsToStorage, From: 3, FromInc: 1}
	for i := 0; i < size; i++ {
		batch.Dets = append(batch.Dets, det.Entry{
			Det:     det.Determinant{Msg: ids.MsgID{Sender: ids.ProcID(i % n), SSN: ids.SSN(i + 1)}, Receiver: 3, RSN: ids.RSN(i + 1)},
			Holders: bitset.FromSlice([]int{3, i % n}),
		})
	}
	frame, err := wire.EncodeChecked(batch)
	if err != nil {
		t.Fatal(err)
	}
	var rx wire.Envelope
	if err := new(wire.Decoder).Decode(&rx, frame); err != nil {
		t.Fatal(err)
	}
	bytes, objs := allocated(runs, func() { s.Deliver(&rx) })
	ack, err := wire.Decode(env.last)
	if err != nil || ack.Kind != wire.KindStorageAck || len(ack.MsgIDs) != size || s.Len() != size {
		t.Fatalf("the node stores %d entries and acks %v (err %v); want all %d stored and acked", s.Len(), ack, err, size)
	}
	frameBytes, _ := allocated(runs, func() { frameSink = make([]byte, 0, env.frame) })
	if objs != 1 || bytes > frameBytes {
		t.Errorf("a warm storage node's delivery of %d entries allocates %d objects, %d B; want 1 (the ack's %d-byte frame, %d B)",
			size, objs, bytes, env.frame, frameBytes)
	}
}
