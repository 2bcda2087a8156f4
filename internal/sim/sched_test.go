package sim

import (
	"testing"
	"time"

	"rollrec/internal/node"
)

// newIdleKernel returns a booted kernel with one no-op node, for white-box
// scheduler tests.
func newIdleKernel(t *testing.T) *Kernel {
	t.Helper()
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	k.Boot()
	return k
}

// TestTimerStopReleasesHeapSlot is the cancellation contract: Stop removes
// the event from the heap immediately (no tombstone waiting for its
// deadline) and recycles the slot through the free list, so retry-heavy
// workloads cannot bloat the queue with dead timers.
func TestTimerStopReleasesHeapSlot(t *testing.T) {
	k := newIdleKernel(t)
	env := node.Env(k.find(0))

	const armed = 100
	timers := make([]node.Timer, armed)
	for i := range timers {
		timers[i] = env.After(time.Duration(i+1)*time.Second, func() {
			t.Error("stopped timer fired")
		})
	}
	if len(k.heap) != armed {
		t.Fatalf("heap holds %d events after arming %d timers", len(k.heap), armed)
	}
	arenaSize := len(k.slots)
	for _, tm := range timers {
		tm.Stop()
	}
	if len(k.heap) != 0 {
		t.Fatalf("heap still holds %d events after stopping every timer", len(k.heap))
	}
	// The freed slots must be reused, not leaked: re-arming the same number
	// of timers cannot grow the arena.
	for i := range timers {
		timers[i] = env.After(time.Duration(i+1)*time.Second, func() {})
	}
	if len(k.slots) != arenaSize {
		t.Fatalf("arena grew %d -> %d; stopped timers must recycle slots", arenaSize, len(k.slots))
	}
}

// TestTimerStopIsIdempotentAcrossReuse: a handle is a value naming (slot,
// generation), so one whose timer is gone is inert — the zero Timer, a double
// Stop, a Stop after firing, and a Stop after the slot was re-armed by a later
// After neither cancel the slot's new timer nor add a credit to Run's totals.
func TestTimerStopIsIdempotentAcrossReuse(t *testing.T) {
	k := newIdleKernel(t)
	env := node.Env(k.find(0))

	var zero node.Timer
	zero.Stop()

	a := env.After(time.Second, func() { t.Error("timer a fired") })
	arena := len(k.slots)
	a.Stop()
	a.Stop() // double stop: no-op

	// b reuses a's freed slot; a's stale handle must not be able to kill it.
	bFired := false
	b := env.After(2*time.Second, func() { bFired = true })
	a.Stop()
	zero.Stop()
	if got := k.Run(3 * time.Second); got != 2 || !bFired {
		t.Fatalf("Run(3s) processed %d events, b fired %v; want 2 (a's one credit, b) and true: a stale handle reached a reused slot", got, bFired)
	}
	b.Stop() // after firing: no-op

	// c's slot fires normally; stopping afterwards must not disturb d.
	c := env.After(time.Second, func() {})
	if got := k.Run(5 * time.Second); got != 1 {
		t.Fatalf("Run(5s) processed %d events, want 1 (c): Stop after firing was credited", got)
	}
	dFired := false
	env.After(time.Second, func() { dFired = true })
	c.Stop()
	b.Stop()
	if got := k.Run(7 * time.Second); got != 1 || !dFired {
		t.Fatalf("Run(7s) processed %d events, d fired %v; want 1 and true: Stop after firing reached an unrelated reused slot", got, dFired)
	}
	if len(k.slots) != arena {
		t.Fatalf("arena grew %d -> %d: the timers above did not share one slot, so no handle was ever stale", arena, len(k.slots))
	}
}

// TestStoppedTimerCreditsEventCount pins the accounting bridge that keeps
// BENCH sim_events byte-identical: a cancelled timer no longer occupies
// the heap, but its deadline still counts as one processed event in the
// Run that covers it — exactly like the tombstone pop it replaced. A
// deadline beyond the horizon is credited only once a later Run reaches
// it.
func TestStoppedTimerCreditsEventCount(t *testing.T) {
	k := newIdleKernel(t)
	env := node.Env(k.find(0))

	t1 := env.After(time.Millisecond, func() {})
	t2 := env.After(2*time.Millisecond, func() {})
	t3 := env.After(10*time.Second, func() {})
	t1.Stop()
	t2.Stop()
	t3.Stop()
	if got := k.Run(time.Second); got != 2 {
		t.Fatalf("Run(1s) processed %d events, want 2 credits for in-horizon cancelled deadlines", got)
	}
	if got := k.Run(5 * time.Second); got != 0 {
		t.Fatalf("Run(5s) processed %d events, want 0 (t3 deadline not reached)", got)
	}
	if got := k.Run(20 * time.Second); got != 1 {
		t.Fatalf("Run(20s) processed %d events, want 1 credit for t3", got)
	}
}

// TestCancelledCreditsInterleaveWithLiveEvents: credits are charged in
// deadline order relative to live events, so multi-step Runs observe the
// same per-call event counts as a scheduler that popped tombstones.
func TestCancelledCreditsInterleaveWithLiveEvents(t *testing.T) {
	k := newIdleKernel(t)
	env := node.Env(k.find(0))

	tm := env.After(2*time.Millisecond, func() {})
	k.At(time.Millisecond, func() {})
	k.At(3*time.Millisecond, func() {})
	tm.Stop()
	// Split exactly between the credit's deadline and the later live event.
	if got := k.Run(2 * time.Millisecond); got != 2 {
		t.Fatalf("Run(2ms) processed %d events, want 2 (live@1ms + credit@2ms)", got)
	}
	if got := k.Run(time.Second); got != 1 {
		t.Fatalf("Run(1s) processed %d events, want 1 (live@3ms)", got)
	}
}

func TestNegativeAtPanics(t *testing.T) {
	k := newIdleKernel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("At with a negative time must panic")
		}
	}()
	k.At(-time.Second, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, _ bool) {
			defer func() {
				if recover() == nil {
					t.Error("After with a negative duration must panic")
				}
			}()
			env.After(-time.Millisecond, func() {})
		})
	})
	k.Boot()
}

// TestMetricsStoreUnknownNodePanics: Metrics and Store are programming-
// error accessors and must fail loudly (with a message naming the id)
// instead of returning a nil that dereferences three frames later; Up and
// ProcOf stay nil-safe for liveness polling.
func TestMetricsStoreUnknownNodePanics(t *testing.T) {
	k := newIdleKernel(t)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Metrics", func() { k.Metrics(42) }},
		{"Store", func() { k.Store(42) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(42) on unknown node must panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}
