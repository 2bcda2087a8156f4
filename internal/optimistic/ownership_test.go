package optimistic

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rollrec/internal/channel"
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
func (a recApp) Handle(_ workload.Ctx, from ids.ProcID, payload storage.Image) error {
	*a.got = append(*a.got, handled{from, string(payload.Data) + strings.Repeat("\x00", payload.Pad)})
	return nil
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
		dseq [3]uint64 // in.Exp afterwards
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
				if p.Phase() != node.PhaseRecovering {
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
			if p.Phase() == node.PhaseRecovering {
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
				if p.in.Exp[q] != d {
					t.Fatalf("in.Exp[%d] = %d, want %d", q, p.in.Exp[q], d)
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
		{from: 1, ssn: 5, dseq: 2, payload: storage.Image{Data: []byte("abc")}, dv: []interval{{1, 1}, {1, 2}, {2, 3}}},
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
	good := encodeLog([]logEntry{{from: 1, ssn: 5, dseq: 2, payload: storage.Image{Data: []byte("abc")}, dv: []interval{{1, 1}}}}, 128)
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

// TestLogRestoresPaddedPayloads: a stable log with 8 MiB of padding whose
// entries hold padded payloads restores each payload as it was logged, data
// and pad, and is as large as the log with every pad written out as zeros.
func TestLogRestoresPaddedPayloads(t *testing.T) {
	const statePad = 8 << 20
	var entries, dense []logEntry
	for i, pad := range seedPads {
		payload := storage.Image{Data: []byte{byte(i), 'l'}, Pad: pad}
		e := logEntry{from: 1, ssn: ids.SSN(i + 1), dseq: uint64(i + 1), payload: payload, dv: []interval{{1, int64(i)}}}
		entries = append(entries, e)
		e.payload = storage.Image{Data: append(append([]byte(nil), payload.Data...), make([]byte, pad)...)}
		dense = append(dense, e)
	}
	img := encodeLog(entries, statePad)
	if d := encodeLog(dense, statePad); img.Size() != d.Size() || d.Pad != statePad {
		t.Fatalf("image is %d B; with its payloads' zeros written out it is %d B", img.Size(), d.Size())
	}
	got, err := decodeLog(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("restored %d entries, logged %d", len(got), len(entries))
	}
	for i, e := range got {
		want := entries[i].payload
		if e.ssn != entries[i].ssn || !bytes.Equal(e.payload.Data, want.Data) || e.payload.Pad != want.Pad {
			t.Fatalf("entry %d restored as %x + %d, logged as %x + %d", i, e.payload.Data, e.payload.Pad, want.Data, want.Pad)
		}
	}
}

// TestSendAllocs: the envelope of every send is the process's tx and the
// dependency vector it carries the process's scratch, so on the simulator,
// with the link cut so that the frame is encoded, counted and lost, a
// transmit and a round of replay requests allocate nothing, where a transmit
// used to cost an envelope and two vectors.
func TestSendAllocs(t *testing.T) {
	h := newHarness(t, 3, 1, workload.NewRandomPeer(0, 0, 0, 0), time.Hour)
	h.k.Run(time.Second)
	h.k.Cut(0, 1)
	h.k.Cut(0, 2)
	p := h.proc(0)
	payload := storage.Image{Data: make([]byte, 16), Pad: 64}
	for _, tc := range []struct {
		name string
		send func()
	}{
		{"transmit", func() { p.transmit(1, 1, channel.Rec{SSN: 1, Payload: payload}) }},
		{"replay requests", func() { p.in.Request(p.env, 1) }},
	} {
		if got := testing.AllocsPerRun(100, tc.send); got != 0 {
			t.Errorf("%s allocates %.1f times, want 0", tc.name, got)
		}
	}
}

// frameLog stands in for a process's network: it keeps the frame each send
// encodes, at the call, as the simulator does, and completes stable writes at
// once.
type frameLog struct {
	node.Env
	frames *[][]byte
}

func (f frameLog) Send(_ ids.ProcID, e *wire.Envelope) {
	e.From = f.ID()
	*f.frames = append(*f.frames, wire.Encode(e))
}
func (f frameLog) Multicast(_ []ids.ProcID, e *wire.Envelope) { f.Send(ids.Nobody, e) }
func (f frameLog) WriteStable(_ string, _ storage.Image, cb func()) {
	if cb != nil {
		cb()
	}
}

// TestScratchEnvelopeCarriesNothingOver: each send builds the whole of its
// envelope in tx, so a send that follows one of another kind encodes the
// bytes it encodes from a zero tx and no vector scratch — a retraction or a
// flush notice inherits no payload, a replay request no dependency vector, a
// notice no stale watermark.
func TestScratchEnvelopeCarriesNothingOver(t *testing.T) {
	payload := storage.Image{Data: []byte("payload"), Pad: 9}
	steps := []func(p *Process){
		func(p *Process) { // a dependency on p2's interval 5, in every vector sent after
			e := app(2, 1, 5, "first")
			p.Deliver(&e)
		},
		func(p *Process) { appCtx{p}.Send(1, payload) },
		func(p *Process) { p.broadcastRetract() },
		func(p *Process) { appCtx{p}.Send(2, payload) },
		func(p *Process) { p.in.Request(p.env, 2) },
		func(p *Process) { appCtx{p}.Send(1, payload) },
		func(p *Process) {
			e := app(1, 1, 1, "delivered")
			p.Deliver(&e)
			p.flush() // the notice
		},
		func(p *Process) { // not an orphan: a replay request to the victim
			p.Deliver(&wire.Envelope{Kind: wire.KindRecoveryAnnounce, From: 2, FromInc: 2, SSN: 9})
		},
		func(p *Process) { appCtx{p}.Send(2, payload) },
	}
	run := func(fresh bool) [][]byte {
		h := newHarness(t, 3, 1, workload.NewRandomPeer(0, 0, 0, 0), time.Hour)
		var frames [][]byte
		p := h.proc(0)
		p.env = frameLog{p.env, &frames}
		for _, step := range steps {
			if fresh { // nothing carried over: no envelope, no vector scratch
				p.tx, p.idx, p.eps = wire.Envelope{}, nil, nil
			}
			step(p)
		}
		return frames
	}
	got, want := run(false), run(true)
	if len(got) != 9 || len(want) != len(got) { // two replay requests, one frame per other send step
		t.Fatalf("%d frames after other sends, %d from a zero tx; want 9", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d encodes %x after the sends before it, %x from a zero tx", i, got[i], want[i])
		}
	}
}
