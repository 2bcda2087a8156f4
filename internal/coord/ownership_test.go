package coord

import (
	"testing"

	"rollrec/internal/ids"
	"rollrec/internal/node"
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

// TestSnapshotImagesAreFreshAndExact: encodeLocalState returns a new,
// exactly-sized buffer per call and encodeSnapshotBlob sizes the blob the
// store will own exactly, recorded channel messages included.
func TestSnapshotImagesAreFreshAndExact(t *testing.T) {
	h := newHarness(t, 3, 1, workload.NewRandomPeer(0, 0, 0, 0))
	p := h.proc(0)
	for _, outSeq := range []uint64{0, 3} {
		p.outSeq = outSeq
		a, b := p.encodeLocalState(), p.encodeLocalState()
		if &a[0] == &b[0] {
			t.Fatal("encodeLocalState must return a fresh buffer per call")
		}
		if cap(a) != len(a) {
			t.Fatalf("outSeq %d: local state len %d cap %d; the size pre-pass must be exact", outSeq, len(a), cap(a))
		}
		p.localState = a
		p.recorded = [][]recordedMsg{nil, {{from: 1, ssn: 7, dseq: 2, payload: []byte("in-flight")}}, nil}
		blob := p.encodeSnapshotBlob()
		if cap(blob) != len(blob) {
			t.Fatalf("outSeq %d: blob len %d cap %d; the size pre-pass must be exact", outSeq, len(blob), cap(blob))
		}
		p.outSeq = 99
		rec := p.decodeSnapshot(blob)
		if len(rec) != 1 || rec[0].from != 1 || rec[0].dseq != 2 || string(rec[0].payload) != "in-flight" {
			t.Fatalf("recorded messages did not round-trip: %+v", rec)
		}
		if outSeq != 0 && p.outSeq != outSeq {
			t.Fatalf("outSeq tail = %d, want %d", p.outSeq, outSeq)
		}
	}
}
