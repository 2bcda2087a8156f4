package recovery

import (
	"math/rand"
	"testing"
	"time"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/vclock"
	"rollrec/internal/wire"
)

// fakeEnv is a minimal node.Env capturing sends and timers.
type fakeEnv struct {
	id     ids.ProcID
	n      int
	now    int64
	sent   []*wire.Envelope
	met    *metrics.Proc
	timers []*fakeTimer
	rng    *rand.Rand
}

type fakeTimer struct {
	at      int64
	fn      func()
	stopped bool
}

func (f *fakeEnv) CancelTimer(slot int32, _ uint64) { f.timers[slot].stopped = true }

func newFakeEnv(id ids.ProcID, n int) *fakeEnv {
	return &fakeEnv{id: id, n: n, met: metrics.NewProc(), rng: rand.New(rand.NewSource(1))}
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
func (f *fakeEnv) After(d time.Duration, fn func()) node.Timer {
	f.timers = append(f.timers, &fakeTimer{at: f.now + int64(d), fn: fn})
	return node.NewTimer(f, int32(len(f.timers)-1), 0)
}
func (f *fakeEnv) MulticastFrame([]ids.ProcID, wire.Kind, []byte) {
	panic("the recovery manager sends envelopes, not frames")
}
func (f *fakeEnv) Busy(time.Duration)                                {}
func (f *fakeEnv) ReadStable(k string, cb func(storage.Image, bool)) { cb(storage.Image{}, false) }
func (f *fakeEnv) WriteStable(k string, _ storage.Image, cb func())  { cb() }
func (f *fakeEnv) Rand() *rand.Rand                                  { return f.rng }
func (f *fakeEnv) Logf(string, ...any)                               {}
func (f *fakeEnv) Metrics() *metrics.Proc                            { return f.met }
func (f *fakeEnv) Tracer() trace.Tracer                              { return trace.Nop{} }

// take drains and returns sent envelopes of a given kind.
func (f *fakeEnv) take(kind wire.Kind) []*wire.Envelope {
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

// fakeHost records Host calls.
type fakeHost struct {
	n          int
	dep        []det.Entry
	incVec     vclock.IncVector
	blocked    bool
	blockedLog []bool
	applied    [][]det.Entry
	writes     int
	writeSizes []int
	built      int // DepInfo + DepInfoFor calls: replies assembled
	// deferWrites parks StableReplyWrite completions in pendingWrites until
	// the test runs them, modelling the stable-storage latency.
	deferWrites   bool
	pendingWrites []func()
}

func newFakeHost(n int) *fakeHost {
	return &fakeHost{n: n, incVec: vclock.NewIncVector(n)}
}

func (h *fakeHost) DepInfo() []det.Entry {
	h.built++
	return h.dep
}
func (h *fakeHost) DepInfoFor(procs []ids.ProcID) []det.Entry {
	h.built++
	return h.scoped(procs)
}
func (h *fakeHost) scoped(procs []ids.ProcID) []det.Entry {
	var out []det.Entry
	for _, e := range h.dep {
		for _, p := range procs {
			if e.Det.Receiver == p {
				out = append(out, e)
				break
			}
		}
	}
	return out
}
func (h *fakeHost) DepInfoLen(procs []ids.ProcID) int {
	if len(procs) == 0 {
		return len(h.dep)
	}
	return len(h.scoped(procs))
}
func (h *fakeHost) MergeIncVec(v []ids.Incarnation) {
	h.incVec.Merge(vclock.FromSlice(v))
}
func (h *fakeHost) IncVecSnapshot() vclock.IncVector { return h.incVec.Clone() }
func (h *fakeHost) ApplyRecoveryData(entries []det.Entry, incVec []ids.Incarnation) {
	h.MergeIncVec(incVec)
	h.applied = append(h.applied, entries)
}
func (h *fakeHost) SetLiveBlocked(b bool) {
	h.blocked = b
	h.blockedLog = append(h.blockedLog, b)
}
func (h *fakeHost) StableReplyWrite(ord ids.Ordinal, size int, done func()) {
	h.writes++
	h.writeSizes = append(h.writeSizes, size)
	if h.deferWrites {
		h.pendingWrites = append(h.pendingWrites, done)
		return
	}
	done()
}

func mkManager(id ids.ProcID, n int, style Style) (*Manager, *fakeEnv, *fakeHost) {
	env := newFakeEnv(id, n)
	host := newFakeHost(n)
	m := NewManager(Config{Style: style, F: 2, RetryEvery: time.Second}, host, env)
	return m, env, host
}

func entry(s ids.ProcID, ssn ids.SSN, r ids.ProcID, rsn ids.RSN, holders ...int) det.Entry {
	return det.Entry{
		Det:     det.Determinant{Msg: ids.MsgID{Sender: s, SSN: ssn}, Receiver: r, RSN: rsn},
		Holders: bitset.FromSlice(holders),
	}
}

func TestSoleRecoveryLeadsImmediately(t *testing.T) {
	m, env, _ := mkManager(1, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 5, Proc: 1}, 2)
	if !m.Leading() {
		t.Fatalf("state = %v, want leading", m.State())
	}
	if got := len(env.take(wire.KindRecoveryAnnounce)); got != 3 {
		t.Fatalf("announces = %d, want 3", got)
	}
	reqs := env.take(wire.KindDepRequest)
	if len(reqs) != 3 {
		t.Fatalf("dep requests = %d, want 3 (all lives)", len(reqs))
	}
	// The incvector must already carry our new incarnation.
	for _, r := range reqs {
		if r.IncVec[1] != 2 {
			t.Fatalf("dep request incvec = %v, want inc 2 for p1", r.IncVec)
		}
	}
}

func TestGatherAggregatesAndCompletes(t *testing.T) {
	m, env, host := mkManager(1, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 5, Proc: 1}, 2)
	env.take(wire.KindDepRequest)

	e1 := entry(0, 1, 2, 1, 0, 2)
	e2 := entry(2, 3, 0, 7, 2, 0)
	for _, from := range []ids.ProcID{0, 2, 3} {
		m.HandleMessage(&wire.Envelope{
			Kind: wire.KindDepReply, From: from, FromInc: 1, Round: 1,
			Dets: []det.Entry{e1, e2},
		})
	}
	if m.State() != StateReplaying {
		t.Fatalf("state = %v, want replaying", m.State())
	}
	if len(host.applied) != 1 {
		t.Fatalf("ApplyRecoveryData calls = %d, want 1", len(host.applied))
	}
	if len(host.applied[0]) != 2 {
		t.Fatalf("gathered %d determinants, want 2", len(host.applied[0]))
	}
	if got := len(env.take(wire.KindRecoveryComplete)); got != 3 {
		t.Fatalf("completes = %d, want 3", got)
	}
}

func TestStaleRoundRepliesIgnored(t *testing.T) {
	m, env, host := mkManager(1, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 5, Proc: 1}, 2)
	env.take(wire.KindDepRequest)
	m.HandleMessage(&wire.Envelope{Kind: wire.KindDepReply, From: 0, FromInc: 1, Round: 99})
	if m.State() != StateLeading {
		t.Fatal("stale-round reply must not advance the gather")
	}
	if len(host.applied) != 0 {
		t.Fatal("no data must be applied from a stale round")
	}
}

func TestDemotionOnLowerOrdinal(t *testing.T) {
	m, env, _ := mkManager(1, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 5, Proc: 1}, 2)
	if !m.Leading() {
		t.Fatal("expected to lead")
	}
	env.sent = nil
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindRecoveryAnnounce, From: 0, FromInc: 3,
		Ord: ids.Ordinal{Clock: 3, Proc: 0},
	})
	if m.State() != StateWaiting {
		t.Fatalf("state = %v, want waiting after seeing a lower ordinal", m.State())
	}
}

func TestHigherOrdinalAnnounceRestartsGather(t *testing.T) {
	m, env, _ := mkManager(1, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 5, Proc: 1}, 2)
	env.sent = nil
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindRecoveryAnnounce, From: 2, FromInc: 4,
		Ord: ids.Ordinal{Clock: 9, Proc: 2},
	})
	if !m.Leading() {
		t.Fatalf("state = %v, want still leading", m.State())
	}
	// The restarted round queries the newcomer's incarnation and excludes
	// it from the live set.
	if got := len(env.take(wire.KindIncRequest)); got != 1 {
		t.Fatalf("inc requests = %d, want 1", got)
	}
	reqs := env.take(wire.KindDepRequest)
	if len(reqs) != 2 {
		t.Fatalf("dep requests = %d, want 2 (p0, p3)", len(reqs))
	}
	for _, r := range reqs {
		if r.To == 2 {
			t.Fatal("recovering p2 must not get a dep request")
		}
		if r.Round != 2 {
			t.Fatalf("round = %d, want 2", r.Round)
		}
		if r.IncVec[2] != 4 {
			t.Fatalf("incvec must carry p2's new incarnation: %v", r.IncVec)
		}
	}
}

func TestSuspectedLiveRestartsGather(t *testing.T) {
	m, env, _ := mkManager(1, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 5, Proc: 1}, 2)
	env.sent = nil
	m.OnSuspect(2)
	if !m.Leading() {
		t.Fatal("leader must keep leading through a mid-gather failure")
	}
	// Step 4 must wait for the failed process's new incarnation (its
	// announcement after restart) before re-running the depinfo phase —
	// the wait that dominates the paper's second experiment.
	if got := len(env.take(wire.KindDepRequest)); got != 0 {
		t.Fatalf("dep requests before p2's announce = %d, want 0", got)
	}
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindRecoveryAnnounce, From: 2, FromInc: 2,
		Ord: ids.Ordinal{Clock: 9, Proc: 2},
	})
	reqs := env.take(wire.KindDepRequest)
	if len(reqs) != 2 {
		t.Fatalf("dep requests after p2's announce = %d, want 2 (p0, p3)", len(reqs))
	}
	round := reqs[0].Round
	for _, r := range reqs {
		if r.To == 2 {
			t.Fatal("recovering p2 must not get a dep request")
		}
		// The restarted vector carries p2's new incarnation so lives
		// reject its stale messages (paper §3.4 step 5 → goto 4).
		if r.IncVec[2] != 2 {
			t.Fatalf("incvec after announce = %v, want p2 at 2", r.IncVec)
		}
	}
	for _, from := range []ids.ProcID{0, 3} {
		m.HandleMessage(&wire.Envelope{Kind: wire.KindDepReply, From: from, FromInc: 1, Round: round})
	}
	if m.State() != StateReplaying {
		t.Fatalf("state = %v, want replaying once all lives replied", m.State())
	}
	data := env.take(wire.KindRecoveryData)
	if len(data) != 1 || data[0].To != 2 {
		t.Fatalf("recovery data = %v, want exactly one to p2", data)
	}
}

func TestNonBlockingLiveReplyDoesNotBlock(t *testing.T) {
	m, env, host := mkManager(2, 4, NonBlocking)
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindDepRequest, From: 1, FromInc: 2, Round: 1,
		Ord: ids.Ordinal{Clock: 5, Proc: 1}, IncVec: []ids.Incarnation{1, 2, 1, 1},
	})
	if host.blocked {
		t.Fatal("nonblocking style must not block the live process")
	}
	if got := len(env.take(wire.KindDepReply)); got != 1 {
		t.Fatalf("dep replies = %d, want 1", got)
	}
	if host.incVec.Get(1) != 2 {
		t.Fatal("live process must install the leader's incvector")
	}
}

func TestBlockingLiveBlocksUntilComplete(t *testing.T) {
	m, env, host := mkManager(2, 4, Blocking)
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindDepRequest, From: 1, FromInc: 2, Round: 1,
		Ord: ids.Ordinal{Clock: 5, Proc: 1}, IncVec: []ids.Incarnation{1, 2, 1, 1},
	})
	if !host.blocked {
		t.Fatal("blocking style must block on the dep request")
	}
	if got := len(env.take(wire.KindDepReply)); got != 1 {
		t.Fatalf("dep replies = %d, want 1", got)
	}
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindRecoveryComplete, From: 1, FromInc: 2,
		Ord: ids.Ordinal{Clock: 5, Proc: 1},
	})
	if host.blocked {
		t.Fatal("recovery complete must unblock")
	}
}

func TestBlockedLiveUnblocksOnLeaderDeath(t *testing.T) {
	m, _, host := mkManager(2, 4, Blocking)
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindDepRequest, From: 1, FromInc: 2, Round: 1,
		Ord: ids.Ordinal{Clock: 5, Proc: 1}, IncVec: []ids.Incarnation{1, 2, 1, 1},
	})
	if !host.blocked {
		t.Fatal("expected blocked")
	}
	m.OnSuspect(1)
	if host.blocked {
		t.Fatal("suspecting the blocking leader must unblock")
	}
}

func TestManethoWritesBeforeReply(t *testing.T) {
	m, env, host := mkManager(2, 4, Manetho)
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindDepRequest, From: 1, FromInc: 2, Round: 1,
		Ord: ids.Ordinal{Clock: 5, Proc: 1}, IncVec: []ids.Incarnation{1, 2, 1, 1},
	})
	if host.writes != 1 {
		t.Fatalf("stable writes = %d, want 1", host.writes)
	}
	if !host.blocked {
		t.Fatal("manetho style must block during the write")
	}
	if got := len(env.take(wire.KindDepReply)); got != 1 {
		t.Fatalf("dep replies = %d, want 1", got)
	}
}

// TestManethoReplySurvivesEnvelopeReuse pins a bug no golden can see. The
// simulator decodes every frame into one envelope (sim.Kernel.rx), and under
// the Manetho style the dep-reply is built after StableReplyWrite completes
// — milliseconds after onDepRequest returned. A reply closure that captured
// the request envelope would then read whatever frame was decoded last: the
// reply would go to the wrong process, with a foreign ordinal and an
// unscoped depinfo. In the explorer the only frames inside the write window
// are the leader's identical requests to other peers, so nothing diverges
// there; here the window holds application frames and heartbeats from other
// senders.
func TestManethoReplySurvivesEnvelopeReuse(t *testing.T) {
	m, env, host := mkManager(2, 4, Manetho)
	host.deferWrites = true
	host.dep = []det.Entry{entry(0, 1, 1, 1, 2), entry(0, 2, 3, 1, 2)}
	ord := ids.Ordinal{Clock: 5, Proc: 1}

	var rx wire.Envelope // the runtime's one receive envelope
	deliver := func(e wire.Envelope) bool {
		rx = e
		return m.HandleMessage(&rx)
	}
	deliver(wire.Envelope{
		Kind: wire.KindDepRequest, From: 1, FromInc: 2, Round: 4, Ord: ord,
		IncVec: []ids.Incarnation{1, 2, 1, 1}, Members: []ids.ProcID{1},
	})
	if len(host.pendingWrites) != 1 || len(env.take(wire.KindDepReply)) != 0 {
		t.Fatalf("the reply must wait for the stable write (writes in flight: %d)", len(host.pendingWrites))
	}
	for _, e := range []wire.Envelope{
		{Kind: wire.KindApp, From: 3, FromInc: 1, SSN: 9, Dseq: 1, Payload: []byte("app")},
		{Kind: wire.KindHeartbeat, From: 0, FromInc: 1},
		{Kind: wire.KindApp, From: 0, FromInc: 1, SSN: 4, Dseq: 1, Payload: []byte("more")},
	} {
		if deliver(e) {
			t.Fatalf("the manager does not own %v frames", e.Kind)
		}
	}
	host.pendingWrites[0]()

	replies := env.take(wire.KindDepReply)
	if len(replies) != 1 {
		t.Fatalf("dep replies = %d, want 1", len(replies))
	}
	r := replies[0]
	if r.To != 1 || r.Ord != ord || r.Round != 4 {
		t.Fatalf("reply to %v ord %v round %d; want the requester p1, the request's ord %v and round 4",
			r.To, r.Ord, r.Round, ord)
	}
	if len(r.Dets) != 1 || r.Dets[0].Det.Receiver != 1 {
		t.Fatalf("depinfo = %v; want it scoped to the request's Members (receiver p1 only)", r.Dets)
	}
}

// TestManethoSizesTheWriteByCounting: the stable write is sized from the
// log as it stands when the request arrives — 32 bytes per entry the reply
// would carry then, scoped or not — by counting, and the reply is assembled
// once, after the write, from the log as it stands then.
func TestManethoSizesTheWriteByCounting(t *testing.T) {
	for _, tc := range []struct {
		members   []ids.ProcID
		size, len int
	}{
		{nil, 3 * 32, 4},
		{[]ids.ProcID{1}, 2 * 32, 3},
	} {
		m, env, host := mkManager(2, 4, Manetho)
		host.deferWrites = true
		host.dep = []det.Entry{entry(0, 1, 1, 1, 2), entry(0, 2, 3, 1, 2), entry(3, 1, 1, 2, 2)}
		m.HandleMessage(&wire.Envelope{
			Kind: wire.KindDepRequest, From: 1, FromInc: 2, Round: 1, Ord: ids.Ordinal{Clock: 5, Proc: 1},
			IncVec: []ids.Incarnation{1, 2, 1, 1}, Members: tc.members,
		})
		if len(host.writeSizes) != 1 || host.writeSizes[0] != tc.size || host.built != 0 {
			t.Fatalf("members %v: write sizes %v with %d replies assembled, want [%d] and none yet",
				tc.members, host.writeSizes, host.built, tc.size)
		}
		host.dep = append(host.dep, entry(0, 3, 1, 3, 2)) // delivered during the write
		host.pendingWrites[0]()
		replies := env.take(wire.KindDepReply)
		if len(replies) != 1 || len(replies[0].Dets) != tc.len || host.built != 1 {
			t.Fatalf("members %v: %d replies, %d assembled; want one reply of %d entries, assembled once",
				tc.members, len(replies), host.built, tc.len)
		}
	}
}

func TestRecoveringProcessAnswersDepRequestWithIncReply(t *testing.T) {
	m, env, _ := mkManager(2, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 9, Proc: 2}, 3)
	env.sent = nil
	// A concurrent leader (lower ord) believes we are live.
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindDepRequest, From: 1, FromInc: 2, Round: 1,
		Ord: ids.Ordinal{Clock: 5, Proc: 1}, IncVec: []ids.Incarnation{1, 2, 1, 1},
	})
	replies := env.take(wire.KindIncReply)
	if len(replies) != 1 {
		t.Fatalf("inc replies = %d, want 1 (identify as recovering)", len(replies))
	}
	if replies[0].FromInc != 3 || replies[0].Ord != (ids.Ordinal{Clock: 9, Proc: 2}) {
		t.Fatalf("inc reply content wrong: %+v", replies[0])
	}
	if len(env.take(wire.KindDepReply)) != 0 {
		t.Fatal("a recovering process must not answer with depinfo")
	}
	if m.State() != StateWaiting {
		t.Fatalf("state = %v, want waiting (deferring to lower ordinal)", m.State())
	}
}

func TestWaitingTakesOverWhenLeaderDies(t *testing.T) {
	m, env, _ := mkManager(2, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 9, Proc: 2}, 3)
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindRecoveryAnnounce, From: 1, FromInc: 2,
		Ord: ids.Ordinal{Clock: 5, Proc: 1},
	})
	if m.State() != StateWaiting {
		t.Fatalf("state = %v, want waiting", m.State())
	}
	env.sent = nil
	m.OnSuspect(1)
	if !m.Leading() {
		t.Fatalf("state = %v, want leading after the leader's death", m.State())
	}
	// New round must wait for p1's (re-)announce: it is in R now.
	if got := len(env.take(wire.KindDepRequest)); got != 0 {
		t.Fatalf("dep requests = %d, want 0 before p1's incarnation is known", got)
	}
}

func TestReplayDoneBroadcastsRecovered(t *testing.T) {
	m, env, _ := mkManager(1, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 5, Proc: 1}, 2)
	env.take(wire.KindDepRequest)
	for _, from := range []ids.ProcID{0, 2, 3} {
		m.HandleMessage(&wire.Envelope{Kind: wire.KindDepReply, From: from, FromInc: 1, Round: 1})
	}
	env.sent = nil
	m.ReplayDone()
	if m.State() != StateLive {
		t.Fatalf("state = %v, want live", m.State())
	}
	if got := len(env.take(wire.KindRecovered)); got != 3 {
		t.Fatalf("recovered broadcasts = %d, want 3", got)
	}
}

func TestConflictingDepinfoPanics(t *testing.T) {
	m, env, _ := mkManager(1, 4, NonBlocking)
	m.StartRecovery(ids.Ordinal{Clock: 5, Proc: 1}, 2)
	env.take(wire.KindDepRequest)
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindDepReply, From: 0, FromInc: 1, Round: 1,
		Dets: []det.Entry{entry(0, 1, 2, 5, 0)},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting receipt orders must panic")
		}
	}()
	m.HandleMessage(&wire.Envelope{
		Kind: wire.KindDepReply, From: 2, FromInc: 1, Round: 1,
		Dets: []det.Entry{entry(0, 1, 2, 6, 2)},
	})
}

func TestStyleStrings(t *testing.T) {
	if NonBlocking.String() != "nonblocking" || Blocking.String() != "blocking" ||
		Manetho.String() != "manetho" {
		t.Fatal("style names wrong")
	}
	if StateLive.String() != "live" || StateReplaying.String() != "replaying" {
		t.Fatal("state names wrong")
	}
}
