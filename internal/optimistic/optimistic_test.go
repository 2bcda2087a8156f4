package optimistic

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/sim"
	"rollrec/internal/workload"
)

type harness struct {
	k         *sim.Kernel
	n         int
	orphans   []orphanEvent
	recovers  int
	crashes   int
	frontiers []int64 // recovered frontiers, in completion order
}

type orphanEvent struct {
	proc, victim ids.ProcID
	lost         int64
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
	h := &harness{n: n}
	h.k = sim.New(sim.Config{Seed: seed, HW: fastHW()})
	par := Params{
		N:          n,
		App:        app,
		FlushEvery: flushEvery,
		StatePad:   2 << 10,
		RetryEvery: 200 * time.Millisecond,
		Hooks: Hooks{
			OnOrphan: func(p, v ids.ProcID, lost int64) {
				h.orphans = append(h.orphans, orphanEvent{p, v, lost})
			},
			OnRecovered: func(_ ids.ProcID, _ uint32, frontier int64) {
				h.recovers++
				h.frontiers = append(h.frontiers, frontier)
			},
		},
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

func (h *harness) settled() bool {
	if h.recovers < h.crashes {
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
	if len(h.orphans) != 0 {
		t.Fatalf("failure-free run produced orphans: %v", h.orphans)
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

	if len(h.orphans) == 0 {
		t.Fatal("a mid-interval crash must orphan the processes that consumed the lost suffix")
	}
	var lost int64
	for _, o := range h.orphans {
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
	slow := newHarness(t, 4, 3, ring(8000), 800*time.Millisecond)
	slow.crashAt(1500*time.Millisecond, 1)
	slow.runUntilDone(t, 120*time.Second)
	fast := newHarness(t, 4, 3, ring(8000), 50*time.Millisecond)
	fast.crashAt(1500*time.Millisecond, 1)
	fast.runUntilDone(t, 120*time.Second)
	// The crashed process's first recovered frontier is how much of its
	// execution survived: a tighter flush period must preserve more.
	if len(slow.frontiers) == 0 || len(fast.frontiers) == 0 {
		t.Fatal("no recoveries observed")
	}
	if fast.frontiers[0] <= slow.frontiers[0] {
		t.Fatalf("frequent flushing must preserve a larger frontier: slow=%d fast=%d",
			slow.frontiers[0], fast.frontiers[0])
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
