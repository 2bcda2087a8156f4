package fbl

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/workload"
)

// In-package integration tests: the cluster package exercises these paths
// too, but running them here keeps the protocol's own replay, checkpoint,
// and storage-streaming code under its own test coverage.

func simHW() node.Hardware {
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

func simCluster(t *testing.T, n, f int, seed int64, style recovery.Style) *sim.Sharded {
	t.Helper()
	k := sim.New(sim.Config{Seed: seed, HW: simHW()})
	par := Params{
		F:               f,
		App:             workload.NewRandomPeer(1, 1_000_000, 32, int64(time.Millisecond)),
		Style:           style,
		CheckpointEvery: 300 * time.Millisecond,
		StatePad:        4 << 10,
		HeartbeatEvery:  50 * time.Millisecond,
		SuspectAfter:    400 * time.Millisecond,
	}
	for i := 0; i < n; i++ {
		k.AddSlot(ids.ProcID(i), New(par))
	}
	if f >= n {
		k.AddSlot(ids.StorageProc, NewStorageNode(n, f))
	}
	k.Boot()
	return k
}

// isLive reports whether ph is the live state, blocked or not.
func isLive(ph node.Phase) bool { return ph == node.PhaseLive || ph == node.PhaseBlocked }

func waitLive(t *testing.T, k *sim.Sharded, victim ids.ProcID, horizon time.Duration) *Process {
	t.Helper()
	for d := time.Second; d <= horizon; d += time.Second {
		k.Run(d)
		if p, ok := k.ProcOf(victim).(*Process); ok && isLive(p.Phase()) && p.Incarnation() > 1 {
			return p
		}
	}
	t.Fatalf("%v never recovered", victim)
	return nil
}

func TestRecoveryEndToEndInPackage(t *testing.T) {
	k := simCluster(t, 4, 2, 11, recovery.NonBlocking)
	k.CrashAt(1500*time.Millisecond, 2)
	p := waitLive(t, k, 2, 30*time.Second)
	if ph := p.Phase(); !isLive(ph) {
		t.Fatalf("phase = %v", ph)
	}
	tr := k.Metrics(2).CurrentRecovery()
	if tr.RestoredAt == 0 || tr.GatheredAt == 0 || tr.ReplayedAt == 0 {
		t.Fatalf("trace incomplete: %+v", tr)
	}
	if !tr.WasLeader {
		t.Fatal("a lone victim must lead its own recovery")
	}
	// Keep running: the recovered process must keep participating.
	before := k.Metrics(2).Delivered
	k.Run(time.Duration(k.Now()) + 3*time.Second)
	if k.Metrics(2).Delivered <= before {
		t.Fatal("recovered process made no further progress")
	}
}

func TestManethoInstanceStreamsToStorage(t *testing.T) {
	k := simCluster(t, 3, 3, 12, recovery.NonBlocking)
	k.Run(3 * time.Second)
	sn, ok := k.ProcOf(ids.StorageProc).(*StorageNode)
	if !ok {
		t.Fatal("storage node missing")
	}
	if sn.Len() == 0 {
		t.Fatal("storage pseudo-process holds no determinants")
	}
	// Crash and recover under f=n: the gather must include storage.
	k.CrashAt(3100*time.Millisecond, 1)
	waitLive(t, k, 1, 30*time.Second)
	if k.Metrics(ids.StorageProc).MsgsRecv[9] == 0 { // KindDepRequest
		t.Fatal("leader never queried the storage pseudo-process")
	}
}

func TestBlockingStyleBuffersAndDrains(t *testing.T) {
	k := simCluster(t, 4, 2, 13, recovery.Blocking)
	k.CrashAt(1500*time.Millisecond, 0)
	waitLive(t, k, 0, 30*time.Second)
	blocked := false
	for i := 1; i < 4; i++ {
		m := k.Metrics(ids.ProcID(i))
		if m.BlockedTotal() > 0 && m.BlockedSpans() > 0 {
			blocked = true
		}
		if m.Blocked() {
			t.Fatalf("p%d still blocked after recovery completed", i)
		}
	}
	if !blocked {
		t.Fatal("blocking style never blocked a live process")
	}
}

func TestCheckpointGCBoundsState(t *testing.T) {
	k := simCluster(t, 4, 2, 14, recovery.NonBlocking)
	k.Run(2 * time.Second)
	sizeEarly := 0
	if p, ok := k.ProcOf(1).(*Process); ok {
		sizeEarly = p.DetStats().SendLogRecords + p.dets.Len()
	}
	k.Run(8 * time.Second)
	p, _ := k.ProcOf(1).(*Process)
	sizeLate := p.DetStats().SendLogRecords + p.dets.Len()
	// With periodic checkpoints and notices, volatile state must stay
	// bounded, not grow with the run.
	if sizeLate > sizeEarly*8 {
		t.Fatalf("volatile state grew from %d to %d: GC not working", sizeEarly, sizeLate)
	}
	// The log's own counters agree with the views, and checkpoint GC feeds
	// the free list instead of growing the slab without bound.
	st := p.DetStats()
	journal, lag := p.LogSizes()
	if st.Entries != journal || st.Pending != lag || journal != p.DetLogLen() || st.Entries+st.SlabFree != st.SlabCap {
		t.Fatalf("inconsistent determinant-log stats %+v (len %d, pending %d)", st, journal, lag)
	}
	if st.SlabFree == 0 || st.SlabCap > sizeEarly*8 {
		t.Fatalf("determinant slab is not recycling collected slots: %+v", st)
	}
}
