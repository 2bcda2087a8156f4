package coord

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/sim"
	"rollrec/internal/trace"
	"rollrec/internal/workload"
)

// harness wires n coordinated-checkpointing processes onto the simulator.
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

func newHarness(t *testing.T, n int, seed int64, app workload.Factory) *harness {
	return newHarnessEvery(t, n, seed, app, 300*time.Millisecond)
}

func newHarnessEvery(t *testing.T, n int, seed int64, app workload.Factory, snapshotEvery time.Duration) *harness {
	t.Helper()
	h := &harness{n: n, tr: &rollbackTracer{}}
	h.k = sim.New(sim.Config{Seed: seed, HW: fastHW(), Tracer: h.tr})
	par := Params{
		App:           app,
		SnapshotEvery: snapshotEvery,
		StatePad:      4 << 10,
	}
	for i := 0; i < n; i++ {
		h.k.AddSlot(ids.ProcID(i), New(par))
	}
	h.k.Boot()
	return h
}

func (h *harness) proc(i ids.ProcID) *Process {
	p, _ := h.k.ProcOf(i).(*Process)
	return p
}

func (h *harness) digests() []uint64 {
	out := make([]uint64, h.n)
	for i := 0; i < h.n; i++ {
		if p := h.proc(ids.ProcID(i)); p != nil {
			out[i] = p.app.Digest()
		}
	}
	return out
}

// crashAt schedules a crash and records that the run must observe its
// cluster-wide rollback before it counts as settled.
func (h *harness) crashAt(at time.Duration, p ids.ProcID) {
	h.crashes++
	h.k.CrashAt(at, p)
}

// rollbacks returns the rollback events, after checking that every process's
// lost-work counters say what its events say.
func (h *harness) rollbacks(t *testing.T) []rollbackEvent {
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

func (h *harness) allDone() bool {
	// Every scheduled crash forces a rollback at every process.
	if len(h.tr.events) < h.crashes*h.n {
		return false
	}
	for i := 0; i < h.n; i++ {
		p := h.proc(ids.ProcID(i))
		if p == nil || !p.app.Done() {
			return false
		}
	}
	return true
}

func (h *harness) runUntilDone(t *testing.T, horizon time.Duration) {
	t.Helper()
	for d := time.Second; d <= horizon; d += time.Second {
		h.k.Run(d)
		if h.allDone() {
			return
		}
	}
	for i := 0; i < h.n; i++ {
		if p := h.proc(ids.ProcID(i)); p != nil {
			t.Logf("p%d epoch=%d delivered=%d committed=%d", i, p.epoch, p.delivered, p.committedID)
		}
	}
	t.Fatal("coordinated cluster did not finish")
}

func TestFailureFreeSnapshotsCommit(t *testing.T) {
	h := newHarness(t, 4, 1, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	h.runUntilDone(t, 60*time.Second)
	p := h.proc(0)
	if p.committedID == 0 {
		t.Fatal("no snapshot ever committed")
	}
	if rb := h.rollbacks(t); len(rb) != 0 {
		t.Fatalf("failure-free run rolled back: %v", rb)
	}
}

func TestGlobalRollbackOnCrash(t *testing.T) {
	// Golden failure-free run for the final state.
	g := newHarness(t, 4, 2, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	g.runUntilDone(t, 60*time.Second)

	h := newHarness(t, 4, 2, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	h.crashAt(1500*time.Millisecond, 2)
	h.runUntilDone(t, 120*time.Second)

	// EVERY process must have rolled back — the defining cost of
	// coordinated checkpointing.
	seen := map[ids.ProcID]bool{}
	rb := h.rollbacks(t)
	for _, r := range rb {
		seen[r.proc] = true
	}
	if len(seen) != 4 {
		t.Fatalf("rollbacks hit %d processes, want all 4: %v", len(seen), rb)
	}
	// The ring is one causal chain: the post-rollback re-execution must
	// reach the identical final state.
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
	// Live processes paid a restore stall.
	blockedSomewhere := false
	for i := 0; i < 4; i++ {
		if ids.ProcID(i) == 2 {
			continue
		}
		if h.k.Metrics(ids.ProcID(i)).BlockedTotal() > 0 {
			blockedSomewhere = true
		}
	}
	if !blockedSomewhere {
		t.Fatal("live processes must stall for the restore during a global rollback")
	}
}

func TestCrashBeforeFirstSnapshot(t *testing.T) {
	g := newHarness(t, 3, 3, workload.NewTokenRing(6000, 32, int64(time.Millisecond)))
	g.runUntilDone(t, 60*time.Second)

	h := newHarness(t, 3, 3, workload.NewTokenRing(6000, 32, int64(time.Millisecond)))
	h.crashAt(100*time.Millisecond, 1) // before any snapshot commits
	h.runUntilDone(t, 120*time.Second)
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
}

// TestRecrashBeforeFirstSnapshot: a restart that finds no committed snapshot
// persists its epoch under snapshot id 0. A second crash of the same process,
// still before any commit, must read that record as "nothing committed" and
// restart the cluster from scratch again, not look for snapshot 0.
func TestRecrashBeforeFirstSnapshot(t *testing.T) {
	const every = time.Minute // no snapshot commits inside this test
	g := newHarnessEvery(t, 3, 3, workload.NewTokenRing(6000, 32, int64(time.Millisecond)), every)
	g.runUntilDone(t, 60*time.Second)

	h := newHarnessEvery(t, 3, 3, workload.NewTokenRing(6000, 32, int64(time.Millisecond)), every)
	h.crashAt(100*time.Millisecond, 1)
	h.crashAt(1500*time.Millisecond, 1) // the first restart finished at ≈ 0.45 s
	h.runUntilDone(t, 120*time.Second)
	if id := h.proc(0).committedID; id != 0 {
		t.Fatalf("snapshot %d committed; the test needs none", id)
	}
	recs := h.k.Metrics(1).Recoveries
	if len(recs) != 2 {
		t.Fatalf("p1 has %d recovery traces, want 2", len(recs))
	}
	for i, r := range recs {
		if r.Total() <= 0 || r.RestoredAt == 0 {
			t.Fatalf("recovery %d of p1 did not complete: %+v", i, r)
		}
	}
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
}

func TestCrashOfInitiator(t *testing.T) {
	g := newHarness(t, 4, 4, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	g.runUntilDone(t, 60*time.Second)

	h := newHarness(t, 4, 4, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	h.crashAt(1400*time.Millisecond, 0) // the snapshot initiator itself
	h.runUntilDone(t, 120*time.Second)
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
	// Snapshots must resume after the initiator's recovery.
	if p := h.proc(0); p.committedID == 0 {
		t.Fatal("snapshots never resumed after initiator crash")
	}
}

func TestRepeatedCrashes(t *testing.T) {
	g := newHarness(t, 4, 5, workload.NewTokenRing(9000, 32, int64(time.Millisecond)))
	g.runUntilDone(t, 120*time.Second)

	h := newHarness(t, 4, 5, workload.NewTokenRing(9000, 32, int64(time.Millisecond)))
	h.crashAt(800*time.Millisecond, 2)
	h.crashAt(2600*time.Millisecond, 3)
	h.runUntilDone(t, 240*time.Second)
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
}

// TestOverlappingCrashesBeforeFirstSnapshot pins the epoch-collision fix the
// schedule explorer (internal/explore) found: two processes crashing with
// overlapping outages before any snapshot commits each restart knowing only
// a stale epoch. Under naive epoch+1 allocation both recoveries pick the
// same number, the later broadcast is fenced as stale everywhere, and the
// channel state the second crash destroyed (the ring token) is never
// re-created — the cluster stalls forever. The mod-n epoch allocation plus
// the stale-restarter relay must recover both restart orderings.
func TestOverlappingCrashesBeforeFirstSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		first  ids.ProcID
		second ids.ProcID
	}{
		// Low id restarts first: the second restarter's higher residue wins
		// directly. High id first: the second broadcast arrives stale and
		// must be relayed by a live peer.
		{"low-then-high", 0, 1},
		{"high-then-low", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newHarness(t, 3, 7, workload.NewTokenRing(6000, 32, int64(time.Millisecond)))
			g.runUntilDone(t, 60*time.Second)

			h := newHarness(t, 3, 7, workload.NewTokenRing(6000, 32, int64(time.Millisecond)))
			h.k.CrashAt(20*time.Millisecond, tc.first)
			h.k.CrashAt(25*time.Millisecond, tc.second)
			// Relays make the per-crash rollback count vary; only require
			// completion and the golden final state.
			h.crashes = 0
			h.runUntilDone(t, 120*time.Second)
			gd, hd := g.digests(), h.digests()
			for i := range gd {
				if gd[i] != hd[i] {
					t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
				}
			}
		})
	}
}

func TestLostWorkIsClusterWide(t *testing.T) {
	h := newHarness(t, 4, 6, workload.NewTokenRing(9000, 32, int64(time.Millisecond)))
	h.crashAt(2*time.Second, 1)
	h.runUntilDone(t, 240*time.Second)
	// Every process lost work, not just the crashed one — the contrast
	// with message logging, where only the victim replays.
	var victims int
	for _, r := range h.rollbacks(t) {
		if r.lost > 0 {
			victims++
		}
	}
	if victims < 3 {
		t.Fatalf("only %d processes lost work; a global rollback wastes everyone's", victims)
	}
}

// TestRollbackLeavesFinishedRecoveryAlone: a process that crashed and
// recovered is later a live peer of another crash. With no snapshot
// committed, its forced rollback restarts it from scratch; that must not
// restamp the recovery trace it already finished.
func TestRollbackLeavesFinishedRecoveryAlone(t *testing.T) {
	h := newHarnessEvery(t, 3, 3, workload.NewTokenRing(6000, 32, int64(time.Millisecond)), time.Hour)
	h.crashAt(200*time.Millisecond, 1)
	h.k.Run(2 * time.Second)
	recs := h.k.Metrics(1).Recoveries
	if len(recs) != 1 || recs[0].ReplayedAt == 0 {
		t.Fatalf("p1's recovery did not finish by 2 s: %+v", recs)
	}
	first := recs[0]
	h.crashAt(3*time.Second, 2)
	h.runUntilDone(t, 120*time.Second)
	if got := h.k.Metrics(1).Recoveries[0]; got != first {
		t.Fatalf("p2's crash rewrote p1's finished recovery trace:\n got %+v\nwant %+v", got, first)
	}
}
