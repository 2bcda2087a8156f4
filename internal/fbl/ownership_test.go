package fbl

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// These tests pin the buffer-ownership contract (DESIGN §5) on the FBL
// side: Deliver may be handed an envelope the runtime reuses, a heartbeat
// costs nothing to receive and one frame per destination to send, and a
// checkpoint image is allocated once.

// reusedRx delivers every frame through one envelope, as sim.Kernel does.
type reusedRx struct {
	p  node.Process
	rx wire.Envelope
}

func (r *reusedRx) deliver(e *wire.Envelope) {
	r.rx = *e
	r.p.Deliver(&r.rx)
}

func heartbeat(from ids.ProcID) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindHeartbeat, From: from, FromInc: 1}
}

type delivery struct {
	from    ids.ProcID
	ssn     ids.SSN
	payload uint64
}

func want(from ids.ProcID, ssn ids.SSN) delivery {
	return delivery{from, ssn, hashBytes([]byte{byte(ssn)})}
}

// TestBufferedFramesSurviveEnvelopeReuse: a frame parked in any of the
// buffers that outlive Deliver — out-of-order, deferred while blocked,
// replay — is later consumed with its own From/SSN/Dseq/Payload although
// the runtime decoded other frames into the same envelope meanwhile.
func TestBufferedFramesSurviveEnvelopeReuse(t *testing.T) {
	cases := []struct {
		name    string
		restart bool
		run     func(p *Process, rx *reusedRx)
		want    []delivery
		dseq    [3]uint64 // expDseq afterwards
	}{
		{
			name: "out-of-order",
			run: func(p *Process, rx *reusedRx) {
				rx.deliver(appFrame(1, 1, 8, 2)) // early: buffered
				rx.deliver(heartbeat(2))
				rx.deliver(appFrame(2, 1, 4, 1))
				rx.deliver(heartbeat(1))
				rx.deliver(appFrame(1, 1, 7, 1)) // fills the gap
			},
			want: []delivery{want(2, 4), want(1, 7), want(1, 8)},
			dseq: [3]uint64{0, 2, 1},
		},
		{
			name: "deferred while blocked",
			run: func(p *Process, rx *reusedRx) {
				p.SetLiveBlocked(true)
				rx.deliver(appFrame(1, 1, 7, 1))
				rx.deliver(heartbeat(2))
				rx.deliver(appFrame(2, 1, 4, 1))
				rx.deliver(heartbeat(1))
				p.SetLiveBlocked(false)
			},
			want: []delivery{want(1, 7), want(2, 4)},
			dseq: [3]uint64{0, 1, 1},
		},
		{
			name:    "replay-buffered",
			restart: true,
			run: func(p *Process, rx *reusedRx) {
				// A lower-ordinal leader serves us: replay p1's message at
				// rsn 1 and p2's at rsn 2.
				rx.deliver(&wire.Envelope{
					Kind: wire.KindRecoveryData, From: 1, FromInc: 1,
					Ord: ids.Ordinal{Clock: 1, Proc: 1},
					Dets: []det.Entry{
						{Det: det.Determinant{Msg: ids.MsgID{Sender: 1, SSN: 7}, Receiver: 0, RSN: 1}},
						{Det: det.Determinant{Msg: ids.MsgID{Sender: 2, SSN: 4}, Receiver: 0, RSN: 2}},
					},
				})
				if p.Mode() != ModeReplaying {
					panic("setup: not replaying")
				}
				rx.deliver(appFrame(2, 1, 4, 1)) // rsn 2 first: replay-buffered
				rx.deliver(heartbeat(1))
				rx.deliver(appFrame(2, 1, 5, 2)) // fresh traffic: deferred
				rx.deliver(heartbeat(2))
				rx.deliver(appFrame(1, 1, 7, 1)) // rsn 1: unblocks both
			},
			want: []delivery{want(1, 7), want(2, 4), want(2, 5)},
			dseq: [3]uint64{0, 1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv(0, 3)
			p := New(testParams(3, 2))().(*Process)
			var got []delivery
			p.par.Hooks.OnDeliver = func(_ ids.ProcID, id ids.MsgID, from ids.ProcID, _ ids.RSN, h uint64) {
				got = append(got, delivery{from, id.SSN, h})
			}
			p.Boot(env, tc.restart)
			tc.run(p, &reusedRx{p: p})
			if len(got) != len(tc.want) {
				t.Fatalf("deliveries = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("delivery %d = %+v, want %+v (all: %v)", i, got[i], tc.want[i], got)
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

// TestHeartbeatDeliverAllocs is the gate that turns a missed retention site
// into a red test: if anything reachable from Deliver keeps a pointer to
// its by-value envelope copy, the copy moves to the heap and every frame —
// 2.3 M heartbeats per explorer cell — allocates again.
func TestHeartbeatDeliverAllocs(t *testing.T) {
	p, _ := bootProc(t, 0, 4, 1)
	hb := heartbeat(1)
	if got := testing.AllocsPerRun(100, func() { p.Deliver(hb) }); got != 0 {
		t.Fatalf("delivering a heartbeat allocates %.1f times, want 0 "+
			"(go build -gcflags=-m ./internal/fbl | grep 'moved to heap: ev')", got)
	}
}

func idleCluster(t *testing.T, n, pad int) *sim.Kernel {
	t.Helper()
	k := sim.New(sim.Config{Seed: 1, HW: simHW()})
	par := Params{
		N: n, F: 1,
		App:             workload.NewRandomPeer(0, 0, 0, 0), // inert
		Style:           recovery.NonBlocking,
		CheckpointEvery: time.Hour,
		StatePad:        pad,
		HeartbeatEvery:  50 * time.Millisecond,
		SuspectAfter:    400 * time.Millisecond,
	}
	for i := 0; i < n; i++ {
		k.AddNode(ids.ProcID(i), New(par))
	}
	k.Boot()
	k.Run(time.Second) // warm the event arena
	return k
}

// TestHeartbeatTickAllocs: one heartbeat period of an idle n-process
// cluster allocates, per process, n-1 frames and the re-armed timer handle
// — no envelope per destination on the way out, none per frame on the way
// in.
func TestHeartbeatTickAllocs(t *testing.T) {
	const n = 4
	k := idleCluster(t, n, 0)
	period := func() { k.Run(time.Duration(k.Now()) + 50*time.Millisecond) }
	if got, want := testing.AllocsPerRun(20, period), float64(n*(n-1)+n); got != want {
		t.Fatalf("a heartbeat period allocates %.1f times, want %.0f (n(n-1) frames + n timer handles)", got, want)
	}
}

// TestCheckpointOneImageAllocs: taking and durably writing a checkpoint of a
// 1 MB process allocates the bytes the codec writes — app snapshot, counters,
// send log — once, plus closures, and not one byte of the modelled padding.
func TestCheckpointOneImageAllocs(t *testing.T) {
	const pad = 1 << 20
	k := idleCluster(t, 3, pad)
	p := k.ProcOf(0).(*Process)
	appCtx{p}.Send(1, bytes.Repeat([]byte("x"), 8<<10)) // a send log worth encoding
	p.doCheckpoint()                                    // warm the storage-latency histogram
	k.Run(time.Duration(k.Now()) + 100*time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.doCheckpoint()
	k.Run(time.Duration(k.Now()) + 100*time.Millisecond)
	runtime.ReadMemStats(&after)
	if p.cpBusy {
		t.Fatal("checkpoint write did not complete")
	}
	img, _ := k.Store(0).Get(keyCheckpoint)
	if img.Pad != pad || len(img.Data) < 8<<10 || k.Store(0).Size(keyCheckpoint) != len(img.Data)+pad {
		t.Fatalf("stored image is %d B + %d pad (Size %d), want the send log plus a %d B pad",
			len(img.Data), img.Pad, k.Store(0).Size(keyCheckpoint), pad)
	}
	const slack = 4 << 10 // closures, the notice frames, 100 ms of heartbeats
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(img.Data))+slack {
		t.Fatalf("one checkpoint allocated %d B for %d B of encoded state; the %d B pad is a count",
			got, len(img.Data), pad)
	}
}

// TestCheckpointImagesAreFreshAndExact: every encodeCheckpoint call returns
// a new buffer of exactly the encoded size (the size pre-pass agrees with
// the encoder), so the image the store owns is unaffected by the process
// building its next one; its logical size is what the image measured when
// the padding was bytes.
func TestCheckpointImagesAreFreshAndExact(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	p.par.StatePad = 4 << 10
	p.Deliver(appFrame(1, 1, 7, 1))
	appCtx{p}.Send(1, []byte("payload-a"))
	p.doCheckpoint() // fakeEnv completes the write at once
	stored, ok := env.stable.Get(keyCheckpoint)
	if !ok {
		t.Fatal("checkpoint not stored")
	}
	if stored.Size() != 4259 || stored.Pad != 4<<10 {
		t.Fatalf("image is %d B (%d pad); the dense encoding of this state was 4259 B", stored.Size(), stored.Pad)
	}

	p.Deliver(appFrame(2, 1, 4, 1))
	appCtx{p}.Send(2, []byte("payload-bb"))
	p.outSeq = 3 // exercises the optional tail of the size pre-pass
	a, b := p.encodeCheckpoint(), p.encodeCheckpoint()
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("encodeCheckpoint must return a fresh buffer per call")
	}
	if cap(a.Data) != len(a.Data) || !bytes.Equal(a.Data, b.Data) || a.Pad != b.Pad {
		t.Fatalf("image len %d cap %d; the size pre-pass must match the encoding exactly", len(a.Data), cap(a.Data))
	}
	if a.Size() != 4297 {
		t.Fatalf("image with an output tail is %d B; its dense encoding was 4297 B", a.Size())
	}
	if bytes.Equal(a.Data, stored.Data) {
		t.Fatal("setup: the second image should differ from the stored one")
	}
	if again, _ := env.stable.Get(keyCheckpoint); !bytes.Equal(again.Data, stored.Data) {
		t.Fatal("building the next image changed the stored one")
	}
	q, _ := bootProc(t, 0, 3, 2)
	if err := q.decodeCheckpoint(a); err != nil || q.outSeq != 3 {
		t.Fatalf("exactly-sized image does not decode: %v (outSeq %d)", err, q.outSeq)
	}
}

// TestCheckpointDecodeChecksPadding: the pad sits before the optional tail,
// and an image whose count disagrees with its length field, or that carries
// bytes past the end, is rejected — with and without the tail.
func TestCheckpointDecodeChecksPadding(t *testing.T) {
	for _, outSeq := range []uint64{0, 3} {
		p, _ := bootProc(t, 0, 3, 2)
		p.par.StatePad = 4 << 10
		appCtx{p}.Send(1, []byte("payload-a"))
		p.outSeq = outSeq
		good := p.encodeCheckpoint()
		bad := map[string]storage.Image{
			"pad one too small": {Data: good.Data, Pad: good.Pad - 1},
			"pad one too large": {Data: good.Data, Pad: good.Pad + 1},
			"pad dropped":       {Data: good.Data},
			"trailing byte":     {Data: append(append([]byte(nil), good.Data...), 0), Pad: good.Pad},
			"truncated":         {Data: good.Data[:len(good.Data)-1], Pad: good.Pad},
		}
		for name, img := range bad {
			q, _ := bootProc(t, 0, 3, 2)
			if err := q.decodeCheckpoint(img); err == nil {
				t.Errorf("outSeq %d, %s: decoded without error", outSeq, name)
			}
		}
		q, _ := bootProc(t, 0, 3, 2)
		if err := q.decodeCheckpoint(good); err != nil || q.outSeq != outSeq {
			t.Fatalf("outSeq %d: the untampered image must decode: %v (outSeq %d)", outSeq, err, q.outSeq)
		}
	}
}
