package optimistic

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// These tests pin the buffer-ownership contract (DESIGN §5) on the
// optimistic-logging side: Deliver may be handed an envelope the runtime
// reuses, and the flushed log is a fresh, exactly-sized buffer.

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
// outside the instance so it survives the rebuild a rollback performs.
type recApp struct{ got *[]handled }

func (a recApp) Start(workload.Ctx) {}
func (a recApp) Handle(_ workload.Ctx, from ids.ProcID, payload []byte) {
	*a.got = append(*a.got, handled{from, string(payload)})
}
func (recApp) Snapshot() []byte     { return nil }
func (recApp) Restore([]byte) error { return nil }
func (recApp) Digest() uint64       { return 0 }
func (recApp) Done() bool           { return true }

// app builds an application frame whose dependency vector says the sender
// was in state interval idx of epoch 1 (the other components are zero).
func app(from ids.ProcID, dseq uint64, idx int64, payload string) wire.Envelope {
	dv := make([]ids.SSN, 3)
	dv[from] = ids.SSN(idx)
	return wire.Envelope{Kind: wire.KindApp, From: from, FromInc: 1, Dseq: dseq,
		Payload: []byte(payload), SSNWatermarks: dv, IncVec: []ids.Incarnation{1, 1, 1}}
}

func heartbeat(from ids.ProcID) wire.Envelope {
	return wire.Envelope{Kind: wire.KindHeartbeat, From: from, FromInc: 1}
}

// TestBufferedFramesSurviveEnvelopeReuse: an out-of-order frame and a frame
// deferred during a rollback are each consumed, after at least two
// intervening deliveries through the same envelope, with their own
// From/Dseq/Payload and dependency vector.
func TestBufferedFramesSurviveEnvelopeReuse(t *testing.T) {
	cases := []struct {
		name string
		run  func(h *harness, p *Process, rx *reusedRx)
		want []handled
		dseq [3]uint64 // expDseq afterwards
		dv1  int64     // p1's component of our dependency vector afterwards
	}{
		{
			name: "out-of-order",
			run: func(_ *harness, _ *Process, rx *reusedRx) {
				rx.deliver(app(1, 2, 9, "second")) // early: buffered
				rx.deliver(heartbeat(2))
				rx.deliver(app(2, 1, 1, "other"))
				rx.deliver(heartbeat(1))
				rx.deliver(app(1, 1, 8, "first")) // fills the gap
			},
			want: []handled{{2, "other"}, {1, "first"}, {1, "second"}},
			dseq: [3]uint64{0, 2, 1},
			dv1:  9,
		},
		{
			name: "deferred during rollback",
			run: func(h *harness, p *Process, rx *reusedRx) {
				rx.deliver(app(1, 1, 5, "orphaning")) // we now depend on p1's interval 5
				// p1 retracts everything past interval 2: we are an orphan and
				// roll back; the truncated log is in flight to stable storage.
				rx.deliver(wire.Envelope{Kind: wire.KindRecoveryAnnounce, From: 1, FromInc: 2, SSN: 2})
				if !p.Rolling() {
					panic("setup: not rolling back")
				}
				rx.deliver(app(2, 1, 1, "deferred-a"))
				rx.deliver(heartbeat(2))
				rx.deliver(app(2, 2, 2, "deferred-b"))
				rx.deliver(heartbeat(1))
				h.k.Run(time.Duration(h.k.Now()) + 100*time.Millisecond) // write completes, buffer drains
			},
			want: []handled{{1, "orphaning"}, {2, "deferred-a"}, {2, "deferred-b"}},
			dseq: [3]uint64{0, 0, 2},
			dv1:  0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []handled
			h := newHarness(t, 3, 1, func(ids.ProcID, int) workload.App { return recApp{&got} }, time.Hour)
			p := h.proc(0)
			tc.run(h, p, &reusedRx{p: p})
			if p.Rolling() {
				t.Fatal("rollback did not finish")
			}
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
			if p.dv[1].index != tc.dv1 {
				t.Fatalf("dv[1] = %+v, want index %d", p.dv[1], tc.dv1)
			}
		})
	}
}

// TestHeartbeatDeliverAllocs: the by-value envelope copy at the top of
// Deliver stays on the stack; a retention site that keeps its address
// instead of a Keep() copy turns this red.
func TestHeartbeatDeliverAllocs(t *testing.T) {
	h := newHarness(t, 3, 1, workload.NewRandomPeer(0, 0, 0, 0), time.Hour)
	p := h.proc(0)
	hb := heartbeat(1)
	if got := testing.AllocsPerRun(100, func() { p.Deliver(&hb) }); got != 0 {
		t.Fatalf("delivering a heartbeat allocates %.1f times, want 0 "+
			"(go build -gcflags=-m ./internal/optimistic | grep 'moved to heap: ev')", got)
	}
}

// TestLogImagesAreFreshAndExact: every encodeLog call returns a new buffer
// of exactly the encoded size, so the log the store owns is unaffected by
// the next flush being built; its logical size is what the log measured
// when the padding was bytes.
func TestLogImagesAreFreshAndExact(t *testing.T) {
	entries := []logEntry{
		{from: 1, ssn: 5, dseq: 2, payload: []byte("abc"), dv: []interval{{1, 1}, {1, 2}, {2, 3}}},
		{from: 2, ssn: 9, dseq: 1, dv: []interval{{1, 4}}},
	}
	for n, dense := range []int{136, 203, 243} { // len(encodeLog) at the parent commit
		a, b := encodeLog(entries[:n], 128), encodeLog(entries[:n], 128)
		if &a.Data[0] == &b.Data[0] {
			t.Fatal("encodeLog must return a fresh buffer per call")
		}
		if cap(a.Data) != len(a.Data) {
			t.Fatalf("%d entries: len %d cap %d; the size pre-pass must be exact", n, len(a.Data), cap(a.Data))
		}
		if a.Size() != dense || a.Pad != 128 {
			t.Fatalf("%d entries: image is %d B (%d pad); its dense encoding was %d B", n, a.Size(), a.Pad, dense)
		}
		if got, err := decodeLog(a); err != nil || len(got) != n {
			t.Fatalf("decoded %d entries, want %d: %v", len(got), n, err)
		}
	}
}

// TestLogDecodeChecksPadding: an image whose pad count disagrees with its
// length field, or that carries bytes past the end, is rejected.
func TestLogDecodeChecksPadding(t *testing.T) {
	good := encodeLog([]logEntry{{from: 1, ssn: 5, dseq: 2, payload: []byte("abc"), dv: []interval{{1, 1}}}}, 128)
	bad := map[string]storage.Image{
		"pad one too small": {Data: good.Data, Pad: good.Pad - 1},
		"pad one too large": {Data: good.Data, Pad: good.Pad + 1},
		"pad dropped":       {Data: good.Data},
		"trailing byte":     {Data: append(append([]byte(nil), good.Data...), 0), Pad: good.Pad},
		"truncated":         {Data: good.Data[:len(good.Data)-1], Pad: good.Pad},
	}
	for name, img := range bad {
		if _, err := decodeLog(img); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := decodeLog(good); err != nil {
		t.Fatalf("the untampered image must decode: %v", err)
	}
}
