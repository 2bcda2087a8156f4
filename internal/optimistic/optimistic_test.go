package optimistic

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/sim"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

type harness struct {
	k       *sim.Sharded
	n       int
	tr      *rollbackTracer
	crashes int
}

type rollbackEvent struct {
	proc  ids.ProcID
	epoch uint32
	lost  int64
}

// rollbackTracer keeps the trace.EvRollback instants and drops the rest.
type rollbackTracer struct {
	trace.Nop
	events []rollbackEvent
}

func (r *rollbackTracer) Instant(_ int64, proc int32, name string, tag trace.Tag) {
	if name == trace.EvRollback {
		r.events = append(r.events, rollbackEvent{ids.ProcID(proc), tag.Inc, tag.Arg})
	}
}

func fastHW() node.Hardware {
	hw := node.Profile1995()
	hw.WatchdogDetect = 300 * time.Millisecond
	hw.RestartDelay = 50 * time.Millisecond
	hw.SuspectAfter = 400 * time.Millisecond
	hw.HeartbeatEvery = 50 * time.Millisecond
	hw.CPUMsgCost = 50 * time.Microsecond
	hw.CPUByteCost = 0
	hw.Disk.Latency = 2 * time.Millisecond
	hw.Disk.ReadBandwidth = 50e6
	hw.Disk.WriteBandwidth = 50e6
	return hw
}

func newHarness(t *testing.T, n int, seed int64, app workload.Factory, flushEvery time.Duration) *harness {
	t.Helper()
	h := &harness{n: n, tr: &rollbackTracer{}}
	h.k = sim.New(sim.Config{Seed: seed, HW: fastHW(), Tracer: h.tr})
	par := Params{
		App:        app,
		FlushEvery: flushEvery,
		StatePad:   2 << 10,
		RetryEvery: 200 * time.Millisecond,
	}
	for i := 0; i < n; i++ {
		h.k.AddNode(ids.ProcID(i), New(par))
	}
	h.k.Boot()
	return h
}

func (h *harness) proc(i ids.ProcID) *Process {
	p, _ := h.k.ProcOf(i).(*Process)
	return p
}

func (h *harness) crashAt(at time.Duration, p ids.ProcID) {
	h.crashes++
	h.k.CrashAt(at, p)
}

// orphans returns the orphan rollbacks, after checking that every process's
// lost-work counters say what its events say.
func (h *harness) orphans(t *testing.T) []rollbackEvent {
	t.Helper()
	for i := 0; i < h.n; i++ {
		var n, lost int64
		for _, r := range h.tr.events {
			if r.proc == ids.ProcID(i) {
				n, lost = n+1, lost+r.lost
			}
		}
		if m := h.k.Metrics(ids.ProcID(i)); m.Rollbacks != n || m.LostDeliveries != lost {
			t.Fatalf("p%d counts %d rollbacks / %d deliveries lost, its events %d / %d",
				i, m.Rollbacks, m.LostDeliveries, n, lost)
		}
	}
	return h.tr.events
}

func (h *harness) settled() bool {
	recovered := 0
	for i := 0; i < h.n; i++ {
		for _, tr := range h.k.Metrics(ids.ProcID(i)).Recoveries {
			if tr.ReplayedAt != 0 {
				recovered++
			}
		}
	}
	if recovered < h.crashes {
		return false
	}
	for i := 0; i < h.n; i++ {
		p := h.proc(ids.ProcID(i))
		if p == nil || p.Rolling() || !p.App().Done() {
			return false
		}
	}
	return true
}

func (h *harness) runUntilDone(t *testing.T, horizon time.Duration) {
	t.Helper()
	for d := time.Second; d <= horizon; d += time.Second {
		h.k.Run(d)
		if h.settled() {
			return
		}
	}
	for i := 0; i < h.n; i++ {
		if p := h.proc(ids.ProcID(i)); p != nil {
			total, durable := p.LogSizes()
			t.Logf("p%d epoch=%d interval=%d log=%d/%d rolling=%v done=%v",
				i, p.Epoch(), p.Interval(), durable, total, p.Rolling(), p.App().Done())
		}
	}
	t.Fatal("optimistic cluster did not settle")
}

func (h *harness) digests() []uint64 {
	out := make([]uint64, h.n)
	for i := 0; i < h.n; i++ {
		if p := h.proc(ids.ProcID(i)); p != nil {
			out[i] = p.App().Digest()
		}
	}
	return out
}

func ring(hops uint64) workload.Factory {
	return workload.NewTokenRing(hops, 32, int64(time.Millisecond))
}

func TestFailureFreeMatchesGolden(t *testing.T) {
	h := newHarness(t, 4, 1, ring(4000), 200*time.Millisecond)
	h.runUntilDone(t, 60*time.Second)
	if o := h.orphans(t); len(o) != 0 {
		t.Fatalf("failure-free run produced orphans: %v", o)
	}
	for i := 0; i < 4; i++ {
		total, durable := h.proc(ids.ProcID(i)).LogSizes()
		if durable == 0 || durable > total {
			t.Fatalf("p%d durable log %d/%d implausible", i, durable, total)
		}
	}
}

// TestCrashCreatesOrphans is the protocol's defining behavior: a crash
// wipes the unflushed suffix and processes that consumed its effects must
// roll back — the phenomenon FBL exists to prevent (paper §6).
func TestCrashCreatesOrphans(t *testing.T) {
	// Golden run for the final state.
	g := newHarness(t, 4, 2, ring(8000), 400*time.Millisecond)
	g.runUntilDone(t, 60*time.Second)

	h := newHarness(t, 4, 2, ring(8000), 400*time.Millisecond)
	// Crash just before a flush boundary so a fat suffix is lost: the ring
	// moves ~2200 hops/s, so ~350 ms past the last flush loses hundreds of
	// deliveries whose effects have long since reached every peer.
	h.crashAt(1390*time.Millisecond, 2)
	h.runUntilDone(t, 120*time.Second)

	orphans := h.orphans(t)
	if len(orphans) == 0 {
		t.Fatal("a mid-interval crash must orphan the processes that consumed the lost suffix")
	}
	var lost int64
	for _, o := range orphans {
		lost += o.lost
	}
	if lost == 0 {
		t.Fatal("orphans must have lost deliveries")
	}
	// Despite the cascade, the re-execution converges to the golden state.
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
}

func TestFrequentFlushesPreserveMoreState(t *testing.T) {
	// The crashed process's recovered frontier is how much of its execution
	// survived, read at the first step boundary after its replay is stamped
	// complete: a tighter flush period must preserve more.
	frontier := func(flushEvery time.Duration) int64 {
		h := newHarness(t, 4, 3, ring(8000), flushEvery)
		got := int64(-1)
		h.k.Single().SetStepProbe(func(sim.StepInfo) {
			if tr := h.k.Metrics(1).CurrentRecovery(); got < 0 && tr != nil && tr.ReplayedAt != 0 {
				got = h.proc(1).Interval()
			}
		})
		h.crashAt(1500*time.Millisecond, 1)
		h.runUntilDone(t, 120*time.Second)
		return got
	}
	slow, fast := frontier(800*time.Millisecond), frontier(50*time.Millisecond)
	if slow < 0 || fast < 0 {
		t.Fatal("no recoveries observed")
	}
	if fast <= slow {
		t.Fatalf("frequent flushing must preserve a larger frontier: slow=%d fast=%d", slow, fast)
	}
}

func TestRepeatedCrashesConverge(t *testing.T) {
	g := newHarness(t, 4, 5, ring(9000), 300*time.Millisecond)
	g.runUntilDone(t, 120*time.Second)

	h := newHarness(t, 4, 5, ring(9000), 300*time.Millisecond)
	h.crashAt(1100*time.Millisecond, 0)
	h.crashAt(2900*time.Millisecond, 3)
	h.runUntilDone(t, 240*time.Second)
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
}

func TestLogCodecRoundTrip(t *testing.T) {
	entries := []logEntry{
		{from: 1, ssn: 5, dseq: 2, payload: []byte("abc"),
			dv: []interval{{1, 1}, {1, 2}, {2, 3}}},
		{from: 2, ssn: 9, dseq: 1, payload: nil,
			dv: []interval{{1, 4}, {1, 5}, {2, 6}}},
	}
	out, err := decodeLog(encodeLog(entries, 128))
	if err != nil || len(out) != 2 {
		t.Fatalf("decoded %d entries: %v", len(out), err)
	}
	if out[0].from != 1 || out[0].ssn != 5 || string(out[0].payload) != "abc" ||
		out[0].dv[2] != (interval{2, 3}) {
		t.Fatalf("entry 0 mismatch: %+v", out[0])
	}
	if out[1].dv[0] != (interval{1, 4}) {
		t.Fatalf("entry 1 mismatch: %+v", out[1])
	}
}

// sendRecorder wraps a process's environment and keeps a copy of every
// frame it sends.
type sendRecorder struct {
	node.Env
	sent []*wire.Envelope
}

func (s *sendRecorder) Send(to ids.ProcID, e *wire.Envelope) {
	c := e.Clone()
	c.To = to
	s.sent = append(s.sent, c)
}

// TestRetransmitAfterFlushPrune: a flush notice prunes the send log to its
// sender up to the notice's watermark, and a retransmission request is
// served from what is left: exactly the dseqs above both the watermark and
// the request, in order, each with its own payload.
func TestRetransmitAfterFlushPrune(t *testing.T) {
	h := newHarness(t, 3, 1, workload.NewRandomPeer(0, 0, 0, 0), time.Hour)
	p := h.proc(0)
	rec := &sendRecorder{Env: p.env}
	p.env = rec
	for i := 1; i <= 6; i++ {
		appCtx{p}.Send(1, []byte{byte(i)})
		appCtx{p}.Send(2, []byte{byte(10 + i)})
	}
	p.Deliver(&wire.Envelope{Kind: wire.KindCheckpointNotice, From: 1, FromInc: 1,
		SSNWatermarks: []ids.SSN{3, 0, 0}})
	for _, tc := range []struct {
		from ids.ProcID
		exp  uint64
		want []uint64
	}{
		{1, 0, []uint64{4, 5, 6}}, // below the pruned prefix: everything left
		{1, 4, []uint64{5, 6}},
		{1, 6, nil},
		{2, 2, []uint64{3, 4, 5, 6}}, // p2's log was not pruned
	} {
		rec.sent = nil
		p.Deliver(&wire.Envelope{Kind: wire.KindReplayRequest, From: tc.from, FromInc: 1, Dseq: tc.exp})
		if len(rec.sent) != len(tc.want) {
			t.Fatalf("request from p%d past %d resent %d frames, want dseqs %v", tc.from, tc.exp, len(rec.sent), tc.want)
		}
		for i, e := range rec.sent {
			payload := byte(tc.want[i])
			if tc.from == 2 {
				payload += 10
			}
			if e.Kind != wire.KindApp || e.To != tc.from || e.Dseq != tc.want[i] || e.Payload[0] != payload {
				t.Fatalf("request from p%d past %d: frame %d is %v to p%d dseq %d payload %v, want dseqs %v",
					tc.from, tc.exp, i, e.Kind, e.To, e.Dseq, e.Payload, tc.want)
			}
		}
	}
}
