package fbl

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/mutant"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// These tests pin the buffer-ownership contract (DESIGN §5) on the FBL
// side: Deliver may be handed an envelope the runtime reuses, a heartbeat
// costs nothing to receive and one frame per tick to send, a piggyback costs
// nothing per determinant on either side, and a checkpoint image is
// allocated once.

// reusedRx delivers every frame through one envelope, as sim.Kernel does.
type reusedRx struct {
	p   node.Process
	rx  wire.Envelope
	dec wire.Decoder
}

// deliver hands e to the process as the simulator does: encoded, then
// decoded into the one envelope through the one decoder.
func (r *reusedRx) deliver(e *wire.Envelope) {
	frame, err := wire.EncodeChecked(e)
	if err == nil {
		err = r.dec.Decode(&r.rx, frame)
	}
	if err != nil {
		panic(err)
	}
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
	return delivery{from, ssn, PayloadHash(storage.Image{Data: []byte{byte(ssn)}, Pad: int(ssn)})}
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
		dseq    [3]uint64 // in.Exp afterwards
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
				if p.Phase() != node.PhaseReplaying {
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
			p := New(testParams(2))(nil).(*Process)
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
				if p.in.Exp[q] != d {
					t.Fatalf("in.Exp[%d] = %d, want %d", q, p.in.Exp[q], d)
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

func idleCluster(t *testing.T, n, pad int, outs output.Sink) *sim.Sharded {
	t.Helper()
	k := sim.New(sim.Config{Seed: 1, HW: simHW()})
	par := Params{
		F:               1,
		App:             workload.NewRandomPeer(0, 0, 0, 0), // inert
		Style:           recovery.NonBlocking,
		CheckpointEvery: time.Hour,
		StatePad:        pad,
		HeartbeatEvery:  50 * time.Millisecond,
		SuspectAfter:    400 * time.Millisecond,
		Outputs:         outs,
	}
	for i := 0; i < n; i++ {
		k.AddSlot(ids.ProcID(i), New(par))
	}
	k.Boot()
	k.Run(time.Second) // warm the event arena
	return k
}

// TestHeartbeatTickAllocs: one heartbeat period of an idle n-process
// cluster allocates nothing. The frame was encoded when the process learnt
// its incarnation and every tick and destination share it, the re-armed
// timer's handle is a value the beat drops: no frame per tick or envelope per
// destination on the way out, none per frame on the way in.
func TestHeartbeatTickAllocs(t *testing.T) {
	const n = 4
	k := idleCluster(t, n, 0, nil)
	period := func() { k.Run(time.Duration(k.Now()) + 50*time.Millisecond) }
	if got := testing.AllocsPerRun(20, period); got != 0 {
		t.Fatalf("a heartbeat period allocates %.1f times, want 0", got)
	}
}

// pendingEntry is determinant i of a synthetic log: a delivery at p2 or p3
// held by its receiver only, so it is pending at f = 1 and has p0 and p1
// still to reach.
func pendingEntry(i int) det.Entry {
	recv := ids.ProcID(2 + i%2)
	return det.Entry{
		Det:     det.Determinant{Msg: ids.MsgID{Sender: ids.ProcID(3 - i%2), SSN: ids.SSN(i/2 + 1)}, Receiver: recv, RSN: ids.RSN(i/2 + 1)},
		Holders: bitset.FromSlice([]int{int(recv)}),
	}
}

// chainPayload is a payload the inert RandomPeer application parses and
// drops: ttl 0, a body, no padding.
var chainPayload = make([]byte, 16)

// paddedChain is chainPayload as a RandomPeer with PayloadPad pad sends it.
func paddedChain(pad int) storage.Image {
	w := wire.NewWriter(16)
	w.U32(0)
	w.U64(0)
	w.Pad(pad)
	return storage.Image{Data: w.Frame(), Pad: w.Padded()}
}

// TestTransmitSteadyStateAllocs: a warmed process sending a message with k
// piggybacked determinants allocates the frame and nothing else — the
// payload it was handed is the send-log record, selection reads views of the
// slab and the selected entries are encoded into the list the process keeps.
// A rebooted process keeps that list's array too (Boot keeps what it
// reuses), so its first send allocates the frame alone: an explorer branch
// does not grow the list again. The allocation count cannot see a frame's
// size, so the PayloadPad: 256 row also weighs it: the bytes a send
// allocates must not grow with the pad, which stays a count in the send log,
// the envelope and the frame.
func TestTransmitSteadyStateAllocs(t *testing.T) {
	const k = 64
	for _, tc := range []struct {
		name string
		outs output.Sink
		pad  int
	}{
		{"plain", nil, 0},
		{"output tracking", output.NewLedger(4), 0},
		{"PayloadPad: 256", nil, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// measure returns the allocations of a send of a payload padded
			// by pad, the bytes of the leanest of 50 after them, and the
			// objects of the first send after a reboot.
			measure := func(pad int) (float64, uint64, uint64) {
				kern := idleCluster(t, 4, 0, tc.outs)
				p := kern.ProcOf(0).(*Process)
				record := func() {
					for i := 0; i < k; i++ {
						if err := p.dets.Record(pendingEntry(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				record()
				sent := p.env.Metrics().PiggybackDets
				payload := paddedChain(pad)
				send := func() {
					// Offer p1 everything again, as if nothing had been:
					// the scan starts over.
					p.scanGen[1] = 0
					appCtx{p}.Send(1, payload)
				}
				got := testing.AllocsPerRun(100, send)
				if per := (p.env.Metrics().PiggybackDets - sent) / 101; per != k {
					t.Fatalf("setup: %d determinants per message, want %d", per, k)
				}
				bytes, _ := allocated(50, send)
				rebooted := firstAllocs(5, func() { p.Boot(p.env, false); record() }, send)
				return got, bytes, rebooted
			}
			got, bytes, rebooted := measure(tc.pad)
			if got != 1 {
				t.Fatalf("sending a message with %d piggybacked determinants allocates %.1f times, want 1 (the frame)", k, got)
			}
			if rebooted != 1 {
				t.Fatalf("a rebooted process's first send of %d determinants allocates %d objects, want 1 (the frame): Boot dropped the list's array", k, rebooted)
			}
			if tc.pad == 0 {
				return
			}
			if _, plain, _ := measure(0); bytes > plain {
				t.Fatalf("a send allocates %d B with a %d B pad and %d B without: the pad is being allocated", bytes, tc.pad, plain)
			}
		})
	}
}

// TestDeliverPiggybackAllocs: delivering that message the way the simulator
// does — one decoder, one envelope — allocates nothing: the payload is a
// view of the frame, the decoder reuses its buffers and the log copies what
// it merges into its slab.
func TestDeliverPiggybackAllocs(t *testing.T) {
	const k, runs = 64, 100
	payload := paddedChain(256)
	e := &wire.Envelope{Kind: wire.KindApp, From: 1, FromInc: 1, Payload: payload.Data, Pad: uint32(payload.Pad)}
	for i := 0; i < k; i++ {
		e.Dets = append(e.Dets, pendingEntry(i))
	}
	frames := make([]storage.Image, runs+1) // AllocsPerRun warms up with one more
	for i := range frames {
		e.SSN, e.Dseq = ids.SSN(i+1), uint64(i+1)
		frames[i], _ = wire.EncodeChecked(e)
	}
	p, _ := bootProc(t, 0, 4, 1)
	var (
		dec  wire.Decoder
		rx   wire.Envelope
		next int
	)
	deliver := func() {
		if err := dec.Decode(&rx, frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
		p.Deliver(&rx)
	}
	if got := testing.AllocsPerRun(runs, deliver); got != 0 {
		t.Fatalf("delivering a message with %d piggybacked determinants allocates %.1f times, want 0", k, got)
	}
	if p.RSN() != runs+1 || p.dets.Len() != k+runs+1 {
		t.Fatalf("setup: rsn %d, %d determinants held; want %d deliveries and %d entries", p.RSN(), p.dets.Len(), runs+1, k+runs+1)
	}
}

// firstAllocs returns the fewest objects fn allocates in one of runs calls,
// each made right after setup: what a first call after setup allocates,
// whatever else allocates meanwhile.
func firstAllocs(runs int, setup, fn func()) uint64 {
	least := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.Mallocs-m0.Mallocs)
	}
	return least
}

// TestPiggybackIsACopyOfWhatWasSelected: transmit encodes each entry into
// its list as the scan selects it, and fanout mode adds the destination as a
// holder of every entry only after the scan; the frame carries the holders
// from before that estimate, which reaches the log alone. The mutation hook
// that drops the piggyback sends nothing but keeps the list's array, and a
// peer that reincarnated gets the pending set again.
func TestPiggybackIsACopyOfWhatWasSelected(t *testing.T) {
	env := &wireEnv{fakeEnv: newFakeEnv(0, 4)}
	par := testParams(3) // f+1 = 4: every entry stays pending throughout
	par.Fanout = 2
	p := New(par)(nil).(*Process)
	p.Boot(env, false)
	const k = 6
	for i := 0; i < k; i++ {
		if err := p.dets.Record(pendingEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	payload := storage.Image{Data: []byte("x")}
	send := func(to ids.ProcID) { appCtx{p}.Send(to, payload) }
	piggyback := func(to ids.ProcID) []det.Entry {
		send(to)
		d, err := wire.Decode(env.last)
		if err != nil {
			t.Fatal(err)
		}
		return d.Clone().Dets
	}

	first := piggyback(1)
	if len(first) != k {
		t.Fatalf("first frame piggybacks %d determinants, want %d", len(first), k)
	}
	for i, en := range first {
		if want := pendingEntry(i); en.Det != want.Det || !en.Holders.Equal(want.Holders) {
			t.Fatalf("entry %d left as %v %v, want %v %v: the destination was counted before the frame was built",
				i, en.Det, en.Holders, want.Det, want.Holders)
		}
		if have, _ := p.dets.Lookup(en.Det.Msg); !have.Holders.Contains(1) {
			t.Fatalf("entry %d: the log did not count p1 as a holder after the send", i)
		}
	}

	dropped := func() {
		mutant.On = mutant.DropDetPiggyback
		defer func() { mutant.On = mutant.None }()
		p.scanGen[2] = -1
		if got := piggyback(2); len(got) != 0 {
			t.Fatalf("mutated send carried %d determinants, want 0", len(got))
		}
	}
	again := func() {
		p.scanGen[3] = -1 // as after p3 reincarnated: the pending set again
		if got := piggyback(3); len(got) != k {
			t.Fatalf("send after the mutated one piggybacks %d determinants, want %d", len(got), k)
		}
	}
	dropped()
	again()
	// Decoding the frame allocates too: the send alone is measured.
	if got := firstAllocs(5, func() { dropped(); p.scanGen[3] = -1 }, func() { send(3) }); got != 1 {
		t.Fatalf("the first send after a mutated one allocates %d objects, want 1 (the frame): the hook dropped the list's array", got)
	}
	if have, _ := p.dets.Lookup(pendingEntry(1).Det.Msg); have.Holders.Contains(2) { // its receiver is p3
		t.Fatal("the mutated send counted p2 as a holder of what it did not send")
	}
}

// TestPiggybackMetricsMatchFrames: the piggyback a process counts is the one
// its frames carry — PiggybackDets the entries they decode to,
// PiggybackBytes Σ(32 + 8·words) over them — in broadcast mode, in fanout
// mode, whose holder estimate runs after the scan, and under output
// tracking, where a stable entry travels once more.
func TestPiggybackMetricsMatchFrames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fanout int
		outs   output.Sink
	}{
		{"broadcast", 0, nil},
		{"fanout", 2, nil},
		{"output tracking", 0, output.NewLedger(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv(0, 4)
			par := testParams(1)
			par.Fanout, par.Outputs = tc.fanout, tc.outs
			p := New(par)(nil).(*Process)
			p.Boot(env, false)
			for i := 0; i < 6; i++ {
				if err := p.dets.Record(pendingEntry(i)); err != nil {
					t.Fatal(err)
				}
			}
			met := env.Metrics()
			dets0, bytes0 := met.PiggybackDets, met.PiggybackBytes
			var dets, bytes, stable int64
			for i, to := range []ids.ProcID{1, 2, 1, 3, 2, 1} {
				// News between sends: a holder joins, and under f = 1 the
				// entry becomes stable.
				p.dets.AddHolder(pendingEntry(i).Det.Msg, 0)
				appCtx{p}.Send(to, storage.Image{Data: []byte("x")})
				for _, e := range env.takeKind(wire.KindApp) {
					for _, en := range e.Dets {
						dets++
						bytes += int64(32 + 8*len(en.Holders.Words()))
						if en.Holders.Count() > par.F {
							stable++
						}
					}
				}
			}
			if dets == 0 || tc.outs != nil && stable == 0 {
				t.Fatalf("setup: the frames carried %d determinants, %d of them stable", dets, stable)
			}
			if gd, gb := met.PiggybackDets-dets0, met.PiggybackBytes-bytes0; gd != dets || gb != bytes {
				t.Fatalf("counted %d determinants and %d B, the frames carry %d and %d B", gd, gb, dets, bytes)
			}
		})
	}
}

// TestCheckpointOneImageAllocs: taking and durably writing a checkpoint of a
// 1 MB process allocates the bytes the codec writes — app snapshot, counters,
// send log — once, plus closures, and not one byte of the modelled padding.
func TestCheckpointOneImageAllocs(t *testing.T) {
	const pad = 1 << 20
	k := idleCluster(t, 3, pad, nil)
	p := k.ProcOf(0).(*Process)
	appCtx{p}.Send(1, storage.Image{Data: bytes.Repeat([]byte("x"), 8<<10)}) // a send log worth encoding
	p.doCheckpoint()                                                         // warm the storage-latency histogram
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
	appCtx{p}.Send(1, storage.Image{Data: []byte("payload-a")})
	p.doCheckpoint() // fakeEnv completes the write at once
	stored, ok := env.stable.Get(keyCheckpoint)
	if !ok {
		t.Fatal("checkpoint not stored")
	}
	if stored.Size() != 4259 || stored.Pad != 4<<10 {
		t.Fatalf("image is %d B (%d pad); the dense encoding of this state was 4259 B", stored.Size(), stored.Pad)
	}

	p.Deliver(appFrame(2, 1, 4, 1))
	appCtx{p}.Send(2, storage.Image{Data: []byte("payload-bb")})
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
		appCtx{p}.Send(1, storage.Image{Data: []byte("payload-a")})
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
