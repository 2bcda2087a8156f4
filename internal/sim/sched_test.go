package sim

import (
	"slices"
	"testing"
	"time"

	"rollrec/internal/node"
)

// newIdleKernel returns a booted one-shard runtime with one no-op node, its
// kernel, and the node's Env, for white-box scheduler tests.
func newIdleKernel(t *testing.T) (*Sharded, *Kernel, node.Env) {
	t.Helper()
	s := New(Config{Seed: 1, HW: hwFast()})
	s.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	s.Boot()
	return s, s.shards[0], s.shards[0].find(0)
}

// TestTimerStopReleasesHeapSlot is the cancellation contract: Stop removes
// the event from the heap immediately (no tombstone waiting for its
// deadline) and recycles the slot through the free list, so retry-heavy
// workloads cannot bloat the queue with dead timers.
func TestTimerStopReleasesHeapSlot(t *testing.T) {
	_, k, env := newIdleKernel(t)

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
// After neither cancel the slot's new timer nor change Run's count.
func TestTimerStopIsIdempotentAcrossReuse(t *testing.T) {
	s, k, env := newIdleKernel(t)

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
	if got := s.Run(3 * time.Second); got != 1 || !bFired {
		t.Fatalf("Run(3s) processed %d events, b fired %v; want 1 (b) and true: a stale handle reached a reused slot", got, bFired)
	}
	b.Stop() // after firing: no-op

	// c's slot fires normally; stopping afterwards must not disturb d.
	c := env.After(time.Second, func() {})
	if got := s.Run(5 * time.Second); got != 1 {
		t.Fatalf("Run(5s) processed %d events, want 1 (c)", got)
	}
	dFired := false
	env.After(time.Second, func() { dFired = true })
	c.Stop()
	b.Stop()
	if got := s.Run(7 * time.Second); got != 1 || !dFired {
		t.Fatalf("Run(7s) processed %d events, d fired %v; want 1 and true: Stop after firing reached an unrelated reused slot", got, dFired)
	}
	if len(k.slots) != arena {
		t.Fatalf("arena grew %d -> %d: the timers above did not share one slot, so no handle was ever stale", arena, len(k.slots))
	}
}

// TestStoppedTimerIsNotAnEvent: the kernel has one event count, the events it
// dispatched. A stopped timer adds nothing to Run's return, and the Run
// returns of a kernel sum to its Steps(), whether or not timers were stopped.
func TestStoppedTimerIsNotAnEvent(t *testing.T) {
	for _, stop := range []bool{false, true} {
		s, k, env := newIdleKernel(t)

		var timers []node.Timer
		for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 10 * time.Second} {
			timers = append(timers, env.After(d, func() {}))
		}
		env.After(time.Millisecond, func() {}) // never stopped
		env.After(3*time.Millisecond, func() {})
		if stop {
			for _, tm := range timers {
				tm.Stop()
			}
		}
		var runs []int64
		sum := int64(0)
		for _, until := range []time.Duration{2 * time.Millisecond, time.Second, 20 * time.Second} {
			n := s.Run(until)
			runs = append(runs, n)
			sum += n
		}
		want := []int64{3, 1, 1} // timers@1ms,2ms + kept@1ms | kept@3ms | timer@10s
		if stop {
			want = []int64{1, 1, 0}
		}
		if !slices.Equal(runs, want) {
			t.Errorf("stop=%v: Run returns %v, want %v", stop, runs, want)
		}
		if sum != k.Steps() {
			t.Errorf("stop=%v: Run returns sum to %d, Steps() = %d", stop, sum, k.Steps())
		}
	}
}

func TestNegativeAtPanics(t *testing.T) {
	k, _, _ := newIdleKernel(t)
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
	k, _, _ := newIdleKernel(t)
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
