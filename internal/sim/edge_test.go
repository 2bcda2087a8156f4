package sim

import (
	"testing"
	"time"

	"rollrec/internal/node"
	"rollrec/internal/wire"
)

func TestDuplicateNodePanics(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode must panic")
		}
	}()
	k.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
}

func TestAtClampsToNow(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	k.Boot()
	k.Run(time.Second)
	fired := false
	k.At(time.Millisecond, func() { fired = true }) // in the past: clamp to now
	k.Run(2 * time.Second)
	if !fired {
		t.Fatal("past-scheduled callback must fire immediately")
	}
}

// TestRunReturnsEventCount: Run counts the events it dispatched. Harness
// callbacks (At) run between windows and are not events.
func TestRunReturnsEventCount(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, _ bool) {
			env.After(time.Millisecond, func() {})
			env.After(2*time.Millisecond, func() {})
		})
	})
	k.Boot()
	k.At(3*time.Millisecond, func() {})
	if got := k.Run(time.Second); got != 2 {
		t.Fatalf("Run processed %d events, want 2", got)
	}
	if got := k.Run(2 * time.Second); got != 0 {
		t.Fatalf("idle Run processed %d events", got)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	LowerEventLimit(t, 100)
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, _ bool) {
			var loop func()
			loop = func() { env.After(time.Microsecond, loop) }
			loop()
		})
	})
	k.Boot()
	defer func() {
		if recover() == nil {
			t.Fatal("runaway schedule must trip the event limit")
		}
	}()
	k.Run(time.Hour)
}

func TestCrashIsIdempotentAndRestartOnce(t *testing.T) {
	k, _, boots := newPingKernel(t, 10)
	k.CrashAt(time.Millisecond, 1)
	k.CrashAt(time.Millisecond+time.Microsecond, 1) // double crash: no-op
	k.Run(10 * time.Second)
	if boots[1] != 2 {
		t.Fatalf("boots = %d, want 2", boots[1])
	}
	if !k.Up(1) {
		t.Fatal("node must be back up")
	}
}

func TestMetricsCountTraffic(t *testing.T) {
	k, _, _ := newPingKernel(t, 6)
	k.Run(time.Second)
	m0, m1 := k.Metrics(0), k.Metrics(1)
	app := uint8(wire.KindApp)
	if m0.MsgsSent[app] == 0 || m1.MsgsRecv[app] == 0 {
		t.Fatal("traffic counters empty")
	}
	if m0.BytesSent[app] == 0 || m1.BytesRecv[app] == 0 {
		t.Fatal("byte counters empty")
	}
	// Every frame sent arrives: no partition, no drop, both ends up.
	if sent := m0.MsgsSent[app] + m1.MsgsSent[app]; sent != m0.MsgsRecv[app]+m1.MsgsRecv[app] {
		t.Fatalf("%d frames sent, %d received", sent, m0.MsgsRecv[app]+m1.MsgsRecv[app])
	}
}

func TestUpAndProcOfUnknownNode(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	if k.Up(42) {
		t.Fatal("unknown node must not be up")
	}
	if k.ProcOf(42) != nil {
		t.Fatal("unknown node must have no process")
	}
}
