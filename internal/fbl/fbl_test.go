package fbl

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// fakeEnv is a minimal node.Env for protocol unit tests: sends are
// recorded, timers are collected (never fire), storage is immediate.
type fakeEnv struct {
	id     ids.ProcID
	n      int
	now    int64
	sent   []*wire.Envelope
	met    *metrics.Proc
	stable *storage.Store
}

func newFakeEnv(id ids.ProcID, n int) *fakeEnv {
	return &fakeEnv{
		id: id, n: n,
		met:    metrics.NewProc(),
		stable: storage.NewStore(),
	}
}

func (f *fakeEnv) ID() ids.ProcID { return f.id }
func (f *fakeEnv) N() int         { return f.n }
func (f *fakeEnv) Now() int64     { return f.now }
func (f *fakeEnv) Send(to ids.ProcID, e *wire.Envelope) {
	c := e.Clone()
	c.From = f.id
	c.To = to
	f.sent = append(f.sent, c)
}
func (f *fakeEnv) Multicast(dests []ids.ProcID, e *wire.Envelope) {
	for _, to := range dests {
		f.Send(to, e)
	}
}
func (f *fakeEnv) MulticastFrame(dests []ids.ProcID, _ wire.Kind, frame storage.Image) {
	var e wire.Envelope
	if err := new(wire.Decoder).Decode(&e, frame); err != nil {
		panic(err)
	}
	f.Multicast(dests, &e)
}
func (f *fakeEnv) After(time.Duration, func()) node.Timer { return node.Timer{} }
func (f *fakeEnv) Busy(time.Duration)                     {}
func (f *fakeEnv) ReadStable(k string, cb func(storage.Image, bool)) {
	v, ok := f.stable.Get(k)
	cb(v, ok)
}
func (f *fakeEnv) WriteStable(k string, d storage.Image, cb func()) {
	f.stable.Put(k, d)
	if cb != nil {
		cb()
	}
}
func (f *fakeEnv) Metrics() *metrics.Proc { return f.met }
func (f *fakeEnv) Tracer() trace.Tracer   { return trace.Nop{} }

func (f *fakeEnv) takeKind(kind wire.Kind) []*wire.Envelope {
	var out, rest []*wire.Envelope
	for _, e := range f.sent {
		if e.Kind == kind {
			out = append(out, e)
		} else {
			rest = append(rest, e)
		}
	}
	f.sent = rest
	return out
}

func testParams(f int) Params {
	return Params{
		F:               f,
		App:             workload.NewRandomPeer(0, 0, 0, 0), // inert app
		Style:           recovery.NonBlocking,
		CheckpointEvery: time.Hour, // manual checkpoints only
	}
}

func bootProc(t *testing.T, id ids.ProcID, n, f int) (*Process, *fakeEnv) {
	t.Helper()
	env := newFakeEnv(id, n)
	p := New(testParams(f))(nil).(*Process)
	p.Boot(env, false)
	env.sent = nil
	return p, env
}

// appFrame is an application frame whose payload, one byte and ssn zeros of
// padding, tells it from every frame with another ssn.
func appFrame(from ids.ProcID, inc ids.Incarnation, ssn ids.SSN, dseq uint64) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindApp, From: from, FromInc: inc, SSN: ssn, Dseq: dseq,
		Payload: []byte{byte(ssn)}, Pad: uint32(ssn),
	}
}

func TestDeliverAssignsRSNAndDeterminant(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	p.Deliver(appFrame(1, 1, 7, 1))
	if p.RSN() != 1 {
		t.Fatalf("rsn = %d, want 1", p.RSN())
	}
	e, ok := p.dets.Lookup(ids.MsgID{Sender: 1, SSN: 7})
	if !ok {
		t.Fatal("own determinant not recorded")
	}
	if e.Det.Receiver != 0 || e.Det.RSN != 1 {
		t.Fatalf("determinant = %v", e.Det)
	}
	if !e.Holders.Contains(0) {
		t.Fatal("receiver must hold its own determinant")
	}
	if env.met.Delivered != 1 {
		t.Fatalf("Delivered = %d", env.met.Delivered)
	}
}

func TestStaleIncarnationRejected(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	p.learnIncarnation(1, 2)
	p.Deliver(appFrame(1, 1, 7, 1))
	if env.met.Stale != 1 || env.met.Delivered != 0 {
		t.Fatalf("stale=%d delivered=%d, want 1/0", env.met.Stale, env.met.Delivered)
	}
	// The current incarnation passes.
	p.Deliver(appFrame(1, 2, 7, 1))
	if env.met.Delivered != 1 {
		t.Fatal("current incarnation must be delivered")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	p.Deliver(appFrame(1, 1, 7, 1))
	p.Deliver(appFrame(1, 1, 7, 1))
	if env.met.Duplicate != 1 || env.met.Delivered != 1 {
		t.Fatalf("dup=%d delivered=%d, want 1/1", env.met.Duplicate, env.met.Delivered)
	}
}

func TestOutOfOrderBuffering(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	p.Deliver(appFrame(1, 1, 8, 2)) // early
	if env.met.Delivered != 0 {
		t.Fatal("gap must not be delivered")
	}
	p.Deliver(appFrame(1, 1, 7, 1))
	if env.met.Delivered != 2 {
		t.Fatalf("delivered = %d, want both after the gap filled", env.met.Delivered)
	}
	// The delivery order is the order of the receive sequence numbers.
	var j []det.Determinant
	for _, e := range p.dets.All() {
		if e.Det.Receiver == 0 {
			j = append(j, e.Det)
		}
	}
	slices.SortFunc(j, func(a, b det.Determinant) int { return cmp.Compare(a.RSN, b.RSN) })
	if len(j) != 2 || j[0].Msg.SSN != 7 || j[1].Msg.SSN != 8 {
		t.Fatalf("delivery order wrong: %v", j)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	p, _ := bootProc(t, 0, 3, 2)
	// Push some state through the process.
	p.Deliver(appFrame(1, 1, 7, 1))
	p.Deliver(appFrame(2, 1, 4, 1))
	appCtx{p}.Send(1, storage.Image{Data: []byte("payload-a")})
	appCtx{p}.Send(2, storage.Image{Data: []byte("payload-b")})
	p.learnIncarnation(2, 3)
	data := p.encodeCheckpoint()

	q, _ := bootProc(t, 0, 3, 2)
	if err := q.decodeCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	if q.ssn != p.ssn || q.rsn != p.rsn || q.started != p.started || q.inc != p.inc {
		t.Fatal("counters did not round-trip")
	}
	for i := 0; i < 3; i++ {
		if q.out[i] != p.out[i] || q.in.Exp[i] != p.in.Exp[i] {
			t.Fatalf("per-peer counters differ at %d", i)
		}
	}
	if q.incVec.Get(2) != 3 {
		t.Fatal("incarnation vector did not round-trip")
	}
	recs, first := q.sendLog.After(1, 0)
	if first != 1 || len(recs) == 0 || string(recs[0].Payload.Data) != "payload-a" {
		t.Fatalf("send log did not round-trip: dseq %d, %+v", first, recs)
	}
	if q.app.Digest() != p.app.Digest() {
		t.Fatal("app state did not round-trip")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	p, _ := bootProc(t, 0, 3, 2)
	if err := p.decodeCheckpoint(storage.Image{Data: []byte{9, 9, 9}}); err == nil {
		t.Fatal("garbage checkpoint must be rejected")
	}
}

func TestCheckpointNoticeGCsSendLogAndDets(t *testing.T) {
	p, _ := bootProc(t, 0, 3, 2)
	appCtx{p}.Send(1, storage.Image{Data: []byte("a")}) // dseq 1
	appCtx{p}.Send(1, storage.Image{Data: []byte("b")}) // dseq 2
	appCtx{p}.Send(1, storage.Image{Data: []byte("c")}) // dseq 3
	// Record a determinant for a delivery at p1.
	if err := p.dets.Record(det.Entry{
		Det: det.Determinant{Msg: ids.MsgID{Sender: 0, SSN: 1}, Receiver: 1, RSN: 5},
	}); err != nil {
		t.Fatal(err)
	}
	// p1 checkpoints having delivered our dseq <= 2 and its rsn <= 5.
	wm := make([]ids.SSN, 3)
	wm[0] = 2
	p.Deliver(&wire.Envelope{
		Kind: wire.KindCheckpointNotice, From: 1, FromInc: 1,
		CPRsn: 5, SSNWatermarks: wm,
	})
	if got := sendLogSSNs(p, 1); len(got) != 1 || got[0] != [2]uint64{3, 3} {
		t.Fatalf("send log after GC = %v, want the uncovered entry (dseq 3, ssn 3) alone", got)
	}
	if _, ok := p.dets.Lookup(ids.MsgID{Sender: 0, SSN: 1}); ok {
		t.Fatal("covered determinant must be GC'd")
	}
}

func TestServeReplayResendsInOrder(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	appCtx{p}.Send(1, storage.Image{Data: []byte("a")})
	appCtx{p}.Send(1, storage.Image{Data: []byte("b")})
	appCtx{p}.Send(1, storage.Image{Data: []byte("c")})
	env.sent = nil
	p.Deliver(&wire.Envelope{Kind: wire.KindReplayRequest, From: 1, FromInc: 2, Dseq: 1})
	frames := env.takeKind(wire.KindApp)
	if len(frames) != 2 {
		t.Fatalf("retransmitted %d frames, want 2 (dseq > 1)", len(frames))
	}
	if frames[0].Dseq != 2 || frames[1].Dseq != 3 {
		t.Fatalf("retransmission order wrong: %d, %d", frames[0].Dseq, frames[1].Dseq)
	}
	if string(frames[0].Payload) != "b" || string(frames[1].Payload) != "c" {
		t.Fatal("retransmitted payloads wrong")
	}
}

// TestReplayRetryServesALostFrameAgain: the network lost the first answer's
// second frame, so the requester's retry asks again from the same watermark
// (one past what it consumed). The retry must carry the lost frame: serving a
// frame once per requester incarnation assumes a link that loses nothing, and
// leaves the requester replaying forever.
func TestReplayRetryServesALostFrameAgain(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	for _, b := range []string{"a", "b", "c"} {
		appCtx{p}.Send(1, storage.Image{Data: []byte(b)})
	}
	env.sent = nil
	req := &wire.Envelope{Kind: wire.KindReplayRequest, From: 1, FromInc: 2, Dseq: 1}
	p.Deliver(req)
	if got := len(env.takeKind(wire.KindApp)); got != 2 {
		t.Fatalf("first answer: %d frames, want 2", got)
	}
	req.Dseq = 2 // dseq 2 arrived, dseq 3 was lost
	p.Deliver(req)
	frames := env.takeKind(wire.KindApp)
	if len(frames) != 1 || frames[0].Dseq != 3 || string(frames[0].Payload) != "c" {
		t.Fatalf("retry answered %d frames %v, want the lost dseq 3", len(frames), frames)
	}
}

func TestPiggybackDedupPerDestination(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	p.Deliver(appFrame(1, 1, 7, 1)) // creates one pending determinant
	env.sent = nil

	appCtx{p}.Send(2, storage.Image{Data: []byte("x")})
	first := env.takeKind(wire.KindApp)
	if len(first) != 1 || len(first[0].Dets) != 1 {
		t.Fatalf("first send must piggyback the pending determinant, got %v", first)
	}
	appCtx{p}.Send(2, storage.Image{Data: []byte("y")})
	second := env.takeKind(wire.KindApp)
	if len(second[0].Dets) != 0 {
		t.Fatal("unchanged determinant must not be piggybacked twice to the same peer")
	}
	// A different destination still gets it.
	appCtx{p}.Send(1, storage.Image{Data: []byte("z")})
	other := env.takeKind(wire.KindApp)
	if len(other[0].Dets) != 1 {
		t.Fatal("another peer must still receive the pending determinant")
	}
}

func TestPiggybackResetOnReincarnation(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	p.Deliver(appFrame(1, 1, 7, 1))
	env.sent = nil
	appCtx{p}.Send(2, storage.Image{Data: []byte("x")})
	env.sent = nil
	// p2 reincarnates: its volatile log died, the estimate must reset.
	p.learnIncarnation(2, 2)
	appCtx{p}.Send(2, storage.Image{Data: []byte("y")})
	frames := env.takeKind(wire.KindApp)
	if len(frames[0].Dets) != 1 {
		t.Fatal("reincarnated peer must receive pending determinants again")
	}
}

func TestPiggybackStopsWhenStable(t *testing.T) {
	p, env := bootProc(t, 0, 4, 1) // f=1: stable at 2 holders
	p.Deliver(appFrame(1, 1, 7, 1))
	// Learn that p2 also holds it: 2 holders = stable for f=1... but the
	// entry here only has ourselves; merge a 2-holder copy.
	if err := p.dets.Record(det.Entry{
		Det:     det.Determinant{Msg: ids.MsgID{Sender: 1, SSN: 7}, Receiver: 0, RSN: 1},
		Holders: holdersOf(0, 2),
	}); err != nil {
		t.Fatal(err)
	}
	env.sent = nil
	appCtx{p}.Send(3, storage.Image{Data: []byte("x")})
	frames := env.takeKind(wire.KindApp)
	if len(frames[0].Dets) != 0 {
		t.Fatalf("stable determinant must not be piggybacked: %v", frames[0].Dets)
	}
}

func holdersOf(elems ...int) (s bitset.Set) {
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// TestHashPayload: the fingerprint folds eight bytes per step, so the cases
// that matter are the seams — the tail after the last whole word, the word
// boundary itself, and the high bits a bare multiply would let cancel — and
// a payload's padding is the zeros it stands for, wherever its data ends.
func TestHashPayload(t *testing.T) {
	hashBytes := func(b []byte) uint64 { return PayloadHash(storage.Image{Data: b}) }
	if hashBytes(nil) != hashBytes([]byte{}) {
		t.Fatal("nil and empty must hash equally")
	}
	seq := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i + 1)
		}
		return b
	}
	flip := func(b []byte, at ...int) []byte {
		b = append([]byte(nil), b...)
		for _, i := range at {
			b[i] ^= 0x80
		}
		return b
	}
	for _, tc := range []struct {
		name string
		a, b []byte
	}{
		{"one byte", []byte("a"), []byte("b")},
		{"tail only, 1 past a word", seq(9), flip(seq(9), 8)},
		{"tail only, 7 past two words", seq(23), flip(seq(23), 22)},
		{"tail bytes swapped", []byte("01234567ab"), []byte("01234567ba")},
		{"first word only", seq(19), flip(seq(19), 0)},
		{"last whole word only", seq(16), flip(seq(16), 15)},
		{"top bits of two adjacent words", seq(16), flip(seq(16), 7, 15)},
		{"top bit of a word and of the tail", seq(12), flip(seq(12), 7, 11)},
		{"words swapped", []byte("aaaaaaaabbbbbbbb"), []byte("bbbbbbbbaaaaaaaa")},
		{"zeros of different length", make([]byte, 8), make([]byte, 16)},
		{"zero tail of different length", make([]byte, 3), make([]byte, 4)},
	} {
		if hashBytes(tc.a) == hashBytes(tc.b) {
			t.Errorf("%s: %x and %x hash equally", tc.name, tc.a, tc.b)
		}
		if hashBytes(tc.a) != hashBytes(append([]byte(nil), tc.a...)) {
			t.Errorf("%s: equal payloads hash differently", tc.name)
		}
	}
	for data := 0; data <= 24; data++ {
		for pad := 0; pad <= 20; pad++ {
			modelled := storage.Image{Data: seq(data), Pad: pad}
			if got, want := PayloadHash(modelled), hashBytes(append(seq(data), make([]byte, pad)...)); got != want {
				t.Fatalf("%d B + %d pad hashes %#x, its materialised form %#x", data, pad, got, want)
			}
		}
	}
}

func TestIncRecordRoundTrip(t *testing.T) {
	p, env := bootProc(t, 0, 3, 2)
	p.inc = 4
	for p.lam.Now() < 17 {
		p.lam.Tick()
	}
	p.writeIncRecord(nil)
	data, ok := env.stable.Get(keyIncarnation)
	if !ok {
		t.Fatal("inc record not written")
	}
	inc, clk, ok := parseIncRecord(data)
	if !ok || inc != 4 || clk != 17 {
		t.Fatalf("parsed (%d,%d,%v), want (4,17,true)", inc, clk, ok)
	}
	if _, _, ok := parseIncRecord(storage.Image{Data: []byte{1}}); ok {
		t.Fatal("short record must be rejected")
	}
	data.Pad = 1
	if _, _, ok := parseIncRecord(data); ok {
		t.Fatal("a record with padding nobody wrote must be rejected")
	}
}

// TestStableDeterminantTravelsOnceMore: three processes at f = 1 under
// output tracking, frames carried by hand. p1 delivers m, asks for an
// output, and sends to p2; p2's next frame to p1 — one round trip after
// that send — carries m's determinant back as stable and the output is
// released. After that, what the determinant's holder set does at p2 is
// not news: p2's frames carry its own new deliveries and nothing else.
func TestStableDeterminantTravelsOnceMore(t *testing.T) {
	const n = 3
	ledger := output.NewLedger(n)
	var (
		procs [n]*Process
		envs  [n]*fakeEnv
		clock int64
	)
	for i := range procs {
		par := testParams(1)
		par.Outputs = ledger
		envs[i] = newFakeEnv(ids.ProcID(i), n)
		procs[i] = New(par)(nil).(*Process)
		procs[i].Boot(envs[i], false)
		envs[i].sent = nil
	}
	// send has `from` send one application message to `to`, delivers it, and
	// returns the determinants it piggybacked.
	send := func(from, to ids.ProcID) []det.Entry {
		t.Helper()
		clock++
		for _, env := range envs {
			env.now = clock
		}
		appCtx{procs[from]}.Send(to, storage.Image{Data: chainPayload})
		frames := envs[from].takeKind(wire.KindApp)
		if len(frames) != 1 || frames[0].To != to {
			t.Fatalf("p%d sent %d app frames, want one to p%d", from, len(frames), to)
		}
		procs[to].Deliver(frames[0])
		return frames[0].Dets
	}
	carries := func(dets []det.Entry, want ...ids.MsgID) {
		t.Helper()
		got := make([]ids.MsgID, len(dets))
		for i, e := range dets {
			got[i] = e.Det.Msg
		}
		ids.SortMsgIDs(got) // the set is the contract, not the order
		if !slices.Equal(got, want) {
			t.Fatalf("frame piggybacks %v, want %v", got, want)
		}
	}
	m := ids.MsgID{Sender: 0, SSN: 1}
	m1 := func(ssn ids.SSN) ids.MsgID { return ids.MsgID{Sender: 1, SSN: ssn} }

	send(0, 1) // m; its determinant is pending at p1, held by p1 alone
	appCtx{procs[1]}.Output([]byte("reply"))
	if ledger.OpenOf(1) != 1 {
		t.Fatal("the output must wait: m's determinant has one holder, f+1 is two")
	}
	carries(send(1, 2), m) // the send; p2 records {1,2}: stable there
	carries(send(1, 0), m) // and p0: {0,1}, stable there too
	if ledger.OpenOf(1) != 1 {
		t.Fatal("the output was released before p1 could know m's determinant is stable")
	}
	back := send(2, 1) // the round trip closes
	carries(back, m, m1(1))
	if ledger.OpenOf(1) != 0 {
		t.Fatalf("p2's frame carried %v and left the output open; want m's determinant stable and the output released", back)
	}

	// Holder growth at p2: p0's copy arrives with {0,1}.
	carries(send(0, 2), m, m1(2))
	st := procs[2].DetStats()
	if e, _ := procs[2].dets.Lookup(m); !e.Holders.Equal(bitset.FromSlice([]int{0, 1, 2})) || st.LateUnions != 1 {
		t.Fatalf("m's determinant at p2 has holders %v, %d late unions; want {0,1,2} stored and counted once", e.Holders, st.LateUnions)
	}
	// p1 was offered it as stable already: the growth adds nothing to p2's
	// next frame, which carries the two deliveries p2 made since.
	carries(send(2, 1), ids.MsgID{Sender: 0, SSN: 2}, m1(2))
	carries(send(2, 1))
	if got := procs[2].env.Metrics().PiggybackDets; got != 4 {
		t.Fatalf("p2 piggybacked %d entries in all, want 4", got)
	}
}
