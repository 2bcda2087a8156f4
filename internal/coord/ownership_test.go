package coord

import (
	"testing"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// These tests pin the buffer-ownership contract (DESIGN §5) on the
// coordinated-checkpointing side: Deliver may be handed an envelope the
// runtime reuses, and snapshot images are fresh, exactly-sized buffers.

// reusedRx delivers every frame through one envelope, as sim.Kernel does.
type reusedRx struct {
	p  node.Process
	rx wire.Envelope
}

func (r *reusedRx) deliver(e wire.Envelope) {
	r.rx = e
	r.p.Deliver(&r.rx)
}

type handled struct {
	from    ids.ProcID
	payload string
}

// recApp records what the protocol hands the application; the log lives
// outside the instance so it survives the rebuilds a rollback performs.
type recApp struct{ got *[]handled }

func (a recApp) Start(workload.Ctx) {}
func (a recApp) Handle(_ workload.Ctx, from ids.ProcID, payload []byte) {
	*a.got = append(*a.got, handled{from, string(payload)})
}
func (recApp) Snapshot() []byte     { return nil }
func (recApp) Restore([]byte) error { return nil }
func (recApp) Digest() uint64       { return 0 }
func (recApp) Done() bool           { return true }

func app(from ids.ProcID, epoch uint32, dseq uint64, payload string) wire.Envelope {
	return wire.Envelope{Kind: wire.KindApp, From: from, FromInc: ids.Incarnation(epoch),
		Dseq: dseq, Payload: []byte(payload)}
}

func heartbeat(from ids.ProcID) wire.Envelope {
	return wire.Envelope{Kind: wire.KindHeartbeat, From: from, FromInc: 1}
}

// TestBufferedFramesSurviveEnvelopeReuse: an out-of-order frame and a
// future-epoch frame are each consumed, after at least two intervening
// deliveries through the same envelope, with their own From/Dseq/Payload.
func TestBufferedFramesSurviveEnvelopeReuse(t *testing.T) {
	cases := []struct {
		name string
		run  func(rx *reusedRx)
		want []handled
		dseq [3]uint64 // expDseq afterwards
	}{
		{
			name: "out-of-order",
			run: func(rx *reusedRx) {
				rx.deliver(app(1, 1, 2, "second")) // early: buffered
				rx.deliver(heartbeat(2))
				rx.deliver(app(2, 1, 1, "other"))
				rx.deliver(heartbeat(1))
				rx.deliver(app(1, 1, 1, "first")) // fills the gap
			},
			want: []handled{{2, "other"}, {1, "first"}, {1, "second"}},
			dseq: [3]uint64{0, 2, 1},
		},
		{
			name: "future epoch",
			run: func(rx *reusedRx) {
				rx.deliver(app(1, 4, 1, "after-rollback")) // epoch 4 > 1: buffered
				rx.deliver(heartbeat(2))
				rx.deliver(app(2, 1, 1, "doomed")) // consumed into the old epoch
				rx.deliver(heartbeat(1))
				// p1 orders the rollback to epoch 4 (no committed snapshot:
				// restart from scratch, synchronously), which drains the buffer.
				rx.deliver(wire.Envelope{Kind: wire.KindRollback, From: 1, FromInc: 4})
			},
			want: []handled{{2, "doomed"}, {1, "after-rollback"}},
			dseq: [3]uint64{0, 1, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []handled
			h := newHarness(t, 3, 1, func(ids.ProcID, int) workload.App { return recApp{&got} })
			p := h.proc(0)
			tc.run(&reusedRx{p: p})
			if len(got) != len(tc.want) {
				t.Fatalf("handled = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("handled[%d] = %v, want %v (all: %v)", i, got[i], tc.want[i], got)
				}
			}
			for q, d := range tc.dseq {
				if p.expDseq[q] != d {
					t.Fatalf("expDseq[%d] = %d, want %d", q, p.expDseq[q], d)
				}
			}
		})
	}
}

// TestHeartbeatDeliverAllocs: the by-value envelope copy at the top of
// Deliver stays on the stack; a retention site that keeps its address
// instead of a Keep() copy turns this red.
func TestHeartbeatDeliverAllocs(t *testing.T) {
	h := newHarness(t, 3, 1, workload.NewRandomPeer(0, 0, 0, 0))
	p := h.proc(0)
	hb := heartbeat(1)
	if got := testing.AllocsPerRun(100, func() { p.Deliver(&hb) }); got != 0 {
		t.Fatalf("delivering a heartbeat allocates %.1f times, want 0 "+
			"(go build -gcflags=-m ./internal/coord | grep 'moved to heap: ev')", got)
	}
}

// TestSnapshotImagesAreFreshAndExact: encodeLocalState starts a new buffer
// per snapshot, sized exactly for a snapshot that records no channel
// messages (the common case: the image is then encoded into one allocation),
// and encodeSnapshotBlob finishes that same buffer. The image's logical
// size is what the blob measured when the padding was bytes.
func TestSnapshotImagesAreFreshAndExact(t *testing.T) {
	h := newHarness(t, 3, 1, workload.NewRandomPeer(0, 0, 0, 0))
	p := h.proc(0)
	for _, tc := range []struct {
		outSeq           uint64
		quiet, recording int // dense blob sizes at the parent commit
	}{{0, 4196, 4229}, {3, 4204, 4237}} {
		p.outSeq = tc.outSeq
		a, b := p.encodeLocalState(), p.encodeLocalState()
		if &a.Frame()[0] == &b.Frame()[0] {
			t.Fatal("encodeLocalState must start a fresh buffer per call")
		}
		p.snap, p.recorded = a, make([][]recordedMsg, 3)
		quiet := p.encodeSnapshotBlob()
		if cap(quiet.Data) != len(quiet.Data) || &quiet.Data[0] != &a.Frame()[0] {
			t.Fatalf("outSeq %d: blob len %d cap %d; a quiet snapshot must be the local-state buffer, exactly sized",
				tc.outSeq, len(quiet.Data), cap(quiet.Data))
		}
		p.snap = b
		p.recorded = [][]recordedMsg{nil, {{from: 1, ssn: 7, dseq: 2, payload: []byte("in-flight")}}, nil}
		blob := p.encodeSnapshotBlob()
		if quiet.Size() != tc.quiet || blob.Size() != tc.recording || blob.Pad != 4<<10 {
			t.Fatalf("outSeq %d: images are %d and %d B (%d pad); their dense encodings were %d and %d B",
				tc.outSeq, quiet.Size(), blob.Size(), blob.Pad, tc.quiet, tc.recording)
		}
		p.outSeq = 99
		rec, err := p.decodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) != 1 || rec[0].from != 1 || rec[0].dseq != 2 || string(rec[0].payload) != "in-flight" {
			t.Fatalf("recorded messages did not round-trip: %+v", rec)
		}
		if tc.outSeq != 0 && p.outSeq != tc.outSeq {
			t.Fatalf("outSeq tail = %d, want %d", p.outSeq, tc.outSeq)
		}
	}
}

// TestSnapshotDecodeChecksPadding: the pad sits inside the length-prefixed
// local state, before its optional tail; an image whose count disagrees
// with the length field, or whose sections do not add up, is rejected.
func TestSnapshotDecodeChecksPadding(t *testing.T) {
	h := newHarness(t, 3, 1, workload.NewRandomPeer(0, 0, 0, 0))
	p := h.proc(0)
	for _, outSeq := range []uint64{0, 3} {
		p.outSeq = outSeq
		p.snap = p.encodeLocalState()
		p.recorded = [][]recordedMsg{nil, {{from: 1, ssn: 7, dseq: 2, payload: []byte("in-flight")}}, nil}
		good := p.encodeSnapshotBlob()
		shortState := append([]byte(nil), good.Data...)
		shortState[0]-- // the local state claims one byte less than it has
		bad := map[string]storage.Image{
			"pad one too small": {Data: good.Data, Pad: good.Pad - 1},
			"pad one too large": {Data: good.Data, Pad: good.Pad + 1},
			"pad dropped":       {Data: good.Data},
			"trailing byte":     {Data: append(append([]byte(nil), good.Data...), 0), Pad: good.Pad},
			"truncated":         {Data: good.Data[:len(good.Data)-1], Pad: good.Pad},
			"state length":      {Data: shortState, Pad: good.Pad},
		}
		for name, img := range bad {
			if _, err := p.decodeSnapshot(img); err == nil {
				t.Errorf("outSeq %d, %s: decoded without error", outSeq, name)
			}
		}
		if _, err := p.decodeSnapshot(good); err != nil {
			t.Fatalf("outSeq %d: the untampered image must decode: %v", outSeq, err)
		}
	}
}
