package sim

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
)

// foldStep accumulates a StepInfo stream into an FNV-style fingerprint.
func foldStep(h uint64, s StepInfo) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(s.Step)) * prime
	h = (h ^ uint64(s.At)) * prime
	h = (h ^ uint64(s.Kind)) * prime
	h = (h ^ uint64(uint32(s.Proc))) * prime
	return h
}

// TestStepProbeObservationOnly pins the probe contract: attaching a probe
// changes nothing about the run — same processed totals, same clock, same
// application progress — and the probe fires exactly once per dispatched
// event with a deterministic stream.
func TestStepProbeObservationOnly(t *testing.T) {
	bare := func() (int64, int64, int) {
		k, procs, _ := newPingKernel(t, 10)
		n := k.Run(100 * time.Millisecond)
		return n, k.Now(), procs[0].rounds + procs[1].rounds
	}
	probed := func() (int64, int64, int, int64, uint64) {
		k, procs, _ := newPingKernel(t, 10)
		var fires int64
		h := uint64(14695981039346656037)
		k.Single().SetStepProbe(func(s StepInfo) {
			if s.Step != fires {
				t.Fatalf("probe step %d, want %d (one fire per dispatch, in order)", s.Step, fires)
			}
			fires++
			h = foldStep(h, s)
		})
		n := k.Run(100 * time.Millisecond)
		return n, k.Now(), procs[0].rounds + procs[1].rounds, fires, h
	}

	n0, now0, rounds0 := bare()
	n1, now1, rounds1, fires, h1 := probed()
	if n0 != n1 || now0 != now1 || rounds0 != rounds1 {
		t.Fatalf("probe perturbed the run: (%d,%d,%d) vs (%d,%d,%d)",
			n0, now0, rounds0, n1, now1, rounds1)
	}
	if fires != n1 {
		t.Fatalf("probe fired %d times, want one per dispatched event (%d)", fires, n1)
	}
	_, _, _, _, h2 := probed()
	if h1 != h2 {
		t.Fatalf("probe stream not deterministic: %#x vs %#x", h1, h2)
	}
}

// TestCrashAtStepDeterministic pins that step-indexed crashes produce the
// identical branch on every run, and that the victim restarts.
func TestCrashAtStepDeterministic(t *testing.T) {
	run := func() (uint64, int, int) {
		k, _, boots := newPingKernel(t, 1000)
		k.Single().CrashAtStep(10, 1)
		h := uint64(14695981039346656037)
		k.Single().SetStepProbe(func(s StepInfo) { h = foldStep(h, s) })
		k.Run(20 * time.Second)
		return h, k.CrashesApplied(), boots[1]
	}
	h1, applied1, boots1 := run()
	h2, applied2, boots2 := run()
	if h1 != h2 {
		t.Fatalf("step-crash branch not deterministic: %#x vs %#x", h1, h2)
	}
	if applied1 != 1 || applied2 != 1 {
		t.Fatalf("CrashesApplied = %d/%d, want 1", applied1, applied2)
	}
	if boots1 != 2 || boots2 != 2 {
		t.Fatalf("victim boots = %d/%d, want 2 (initial + watchdog restart)", boots1, boots2)
	}
}

// TestCrashAtStepLandsBeforeTheEvent verifies the interleaving contract: a
// crash registered at step s takes effect before event s dispatches, so the
// probe at step s already observes the victim down — the placement CrashAt
// cannot express (its crash event sorts after all same-time events).
func TestCrashAtStepLandsBeforeTheEvent(t *testing.T) {
	// First pass: find a mid-run arrival addressed to process 1.
	k0, _, _ := newPingKernel(t, 1000)
	target := int64(-1)
	k0.Single().SetStepProbe(func(s StepInfo) {
		if target < 0 && s.Step > 5 && s.Kind == StepKindArrive && s.Proc == 1 {
			target = s.Step
		}
	})
	k0.Run(100 * time.Millisecond)
	if target < 0 {
		t.Fatal("no arrival for process 1 found")
	}

	k, _, _ := newPingKernel(t, 1000)
	k.Single().CrashAtStep(target, 1)
	sawDown := false
	k.Single().SetStepProbe(func(s StepInfo) {
		if s.Step == target {
			sawDown = !k.Up(1)
		}
	})
	k.Run(100 * time.Millisecond)
	if !sawDown {
		t.Fatalf("victim still up at its crash step %d", target)
	}
}

// TestCrashAtStepOnDownProcessIsNoop: re-crashing a victim that is still
// down applies nothing, and CrashesApplied reflects only effective crashes.
func TestCrashAtStepOnDownProcessIsNoop(t *testing.T) {
	k, _, boots := newPingKernel(t, 1000)
	k.Single().CrashAtStep(10, 1)
	k.Single().CrashAtStep(11, 1) // boundary 11 arrives long before the restart fires
	k.Run(20 * time.Second)
	if got := k.CrashesApplied(); got != 1 {
		t.Fatalf("CrashesApplied = %d, want 1 (second injection was a no-op)", got)
	}
	if boots[1] != 2 {
		t.Fatalf("victim boots = %d, want 2", boots[1])
	}
}

func TestCrashAtStepPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	k, _, _ := newPingKernel(t, 10)
	k.Run(10 * time.Millisecond)
	one := k.Single()
	mustPanic("passed boundary", func() { one.CrashAtStep(0, 1) })
	mustPanic("storage proc", func() { one.CrashAtStep(one.Steps()+5, ids.StorageProc) })
}

// TestResetForgetsProbeAndStepCrashes: a reset drops the step probe and the
// step-indexed crashes the run before left unfired, so the run after it is
// the fresh run — same events, no probe call, no crash — though it passes
// the step the stale crash named.
func TestResetForgetsProbeAndStepCrashes(t *testing.T) {
	fresh, _, _ := newPingKernel(t, 50)
	want := fresh.Run(time.Second)
	short, _, _ := newPingKernel(t, 50)
	cut := short.Run(5 * time.Millisecond)
	if cut+2 >= want {
		t.Fatalf("setup: %d events by 5 ms and %d by 1 s leave no step between", cut, want)
	}

	s, _, _ := newPingKernel(t, 50)
	probed := int64(0)
	s.Single().SetStepProbe(func(StepInfo) { probed++ })
	s.Single().CrashAtStep((cut+want)/2, 1)
	s.Run(5 * time.Millisecond)
	s.Reset(Config{Seed: 42, HW: hwFast()})
	for _, id := range []ids.ProcID{0, 1} {
		s.AddNode(id, func() node.Process { return &pingProc{max: 50} })
	}
	s.Boot()
	if got := s.Run(time.Second); got != want || probed != cut || s.CrashesApplied() != 0 {
		t.Fatalf("after a reset: %d events (fresh %d), probe called %d times (%d before the reset), %d crashes applied",
			got, want, probed, cut, s.CrashesApplied())
	}
}
