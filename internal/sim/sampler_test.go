package sim

import (
	"fmt"
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
)

// The sampler and harness callbacks belong to the coordinator (shard.go);
// these tests drive it with one shard unless they say otherwise.

func newIdleSharded(shards int) *Sharded {
	s := NewSharded(Config{Seed: 1, HW: hwFast()}, shards)
	s.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	s.Boot()
	return s
}

// newPingSharded is newPingKernel on the coordinator, one process per shard.
func newPingSharded(maxRounds int) *Sharded {
	s := NewSharded(Config{Seed: 42, HW: hwFast()}, 2)
	for _, id := range []ids.ProcID{0, 1} {
		s.AddNode(id, func() node.Process { return &pingProc{max: maxRounds} })
	}
	s.Boot()
	return s
}

// TestSamplerBoundaryRule pins the observation-only sampling contract: a
// sample at boundary b fires after every event with at < b and before any
// event with at >= b, including an event at exactly b.
func TestSamplerBoundaryRule(t *testing.T) {
	k := NewSharded(Config{Seed: 1, HW: hwFast()}, 1)
	var log []string
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, _ bool) {
			for _, d := range []time.Duration{
				4 * time.Millisecond,
				10 * time.Millisecond, // exactly on a boundary: sample first
				16 * time.Millisecond,
			} {
				d := d
				env.After(d, func() { log = append(log, fmt.Sprintf("e@%v", d)) })
			}
		})
	})
	k.Boot()
	k.AddSampler(10*time.Millisecond, func(now int64) {
		log = append(log, fmt.Sprintf("s@%v", time.Duration(now)))
	})
	k.Run(30 * time.Millisecond)

	want := []string{"e@4ms", "s@10ms", "e@10ms", "e@16ms", "s@20ms", "s@30ms"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("sampler/event interleaving:\n got %v\nwant %v", log, want)
	}
}

// TestSamplerRunsToHorizon: even after the queue drains, the run covers
// every boundary up to the horizon — a run to `until` always takes exactly
// floor(until/interval) samples.
func TestSamplerRunsToHorizon(t *testing.T) {
	k := newIdleSharded(1)
	var n int
	k.AddSampler(10*time.Millisecond, func(int64) { n++ })
	k.Run(95 * time.Millisecond)
	if n != 9 {
		t.Fatalf("took %d samples to 95ms at 10ms, want 9", n)
	}
}

// TestSamplerPersistsAcrossRuns: the boundary clock continues across Run
// calls instead of resetting, so split horizons sample like one long run.
func TestSamplerPersistsAcrossRuns(t *testing.T) {
	k := newIdleSharded(1)
	var at []time.Duration
	k.AddSampler(10*time.Millisecond, func(now int64) { at = append(at, time.Duration(now)) })
	k.Run(15 * time.Millisecond)
	k.Run(35 * time.Millisecond)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Fatalf("boundaries %v, want %v", at, want)
	}
}

// TestSamplerMidRunInstall: installing after virtual time has passed aligns
// the first boundary to the next interval multiple, never to the past.
func TestSamplerMidRunInstall(t *testing.T) {
	k := newIdleSharded(1)
	k.Run(25 * time.Millisecond)
	var at []time.Duration
	k.AddSampler(10*time.Millisecond, func(now int64) { at = append(at, time.Duration(now)) })
	k.Run(45 * time.Millisecond)
	want := []time.Duration{30 * time.Millisecond, 40 * time.Millisecond}
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Fatalf("boundaries %v, want %v", at, want)
	}
}

// TestSamplersCompose: two samplers each fire at their own multiples, ticks
// at one instant run in registration order (not interval order), sampling
// leaves the event count of an unsampled run unchanged, and a non-positive
// interval is a programming error.
func TestSamplersCompose(t *testing.T) {
	plain := newPingSharded(50).Run(100 * time.Millisecond)
	k := newPingSharded(50)
	var log []string
	tick := func(name string) func(int64) {
		return func(now int64) { log = append(log, fmt.Sprintf("%s@%v", name, time.Duration(now))) }
	}
	k.AddSampler(25*time.Millisecond, tick("a"))
	k.AddSampler(10*time.Millisecond, tick("b"))
	sampled := k.Run(100 * time.Millisecond)
	want := "[b@10ms b@20ms a@25ms b@30ms b@40ms a@50ms b@50ms b@60ms b@70ms a@75ms b@80ms b@90ms a@100ms b@100ms]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("ticks:\n got %s\nwant %s", got, want)
	}
	if plain != sampled || plain == 0 {
		t.Fatalf("event counts: %d unsampled vs %d with two samplers", plain, sampled)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddSampler(0) must panic")
		}
	}()
	k.AddSampler(0, func(int64) {})
}

// TestSamplerSeesQueueAndInFlight: the kernel gauges the timeline samples —
// queue depth and in-flight frames — are visible from inside a sample while
// traffic is flowing, and the in-flight count returns to zero at the end.
func TestSamplerSeesQueueAndInFlight(t *testing.T) {
	// 10 rounds per side ≈ 20 one-way legs at 1 ms: done well before the
	// 50 ms horizon, so every frame lands inside the run.
	k := newPingSharded(10)
	sawQueue, sawInFlight := 0, 0
	k.AddSampler(500*time.Microsecond, func(int64) {
		if k.QueueDepth() > 0 {
			sawQueue++
		}
		if k.InFlightFrames() > 0 {
			sawInFlight++
		}
	})
	k.Run(50 * time.Millisecond)
	if sawQueue == 0 {
		t.Error("no sample observed a non-empty event queue")
	}
	if sawInFlight == 0 {
		t.Error("no sample observed an in-flight frame (1ms latency, 500µs sampling)")
	}
	if k.InFlightFrames() != 0 {
		t.Errorf("%d frames still in flight after the run drained", k.InFlightFrames())
	}
}

// TestSamplerDoesNotChangeEventCount: enabling sampling must not change the
// processed-event total of an identical run — the count the bench snapshots
// pin.
func TestSamplerDoesNotChangeEventCount(t *testing.T) {
	run := func(sample bool) int64 {
		k := newPingSharded(50)
		if sample {
			k.AddSampler(time.Millisecond, func(int64) {})
		}
		return k.Run(100 * time.Millisecond)
	}
	plain, sampled := run(false), run(true)
	if plain != sampled {
		t.Fatalf("event counts diverged: %d unsampled vs %d sampled", plain, sampled)
	}
	if plain == 0 {
		t.Fatal("run processed no events")
	}
}

// TestCallbacksRunInRegistrationOrderBeforeTheInstant: At callbacks and
// sampler ticks due at one instant run in the order they were registered —
// whichever kind came first — after every process event before the instant
// and before every process event at it, on any shard count; a callback may
// register another for the instant it runs at.
func TestCallbacksRunInRegistrationOrderBeforeTheInstant(t *testing.T) {
	const at = 10 * time.Millisecond
	for _, shards := range []int{1, 2, 4} {
		s := NewSharded(Config{Seed: 1, HW: hwFast()}, shards)
		s.ForceWindowPath(false) // the process events below share log
		var log []string
		note := func(what string) func() { return func() { log = append(log, what) } }
		for id := ids.ProcID(0); id < 4; id++ {
			s.AddNode(id, func() node.Process {
				return bootFunc(func(env node.Env, _ bool) {
					env.After(at-1, note("before"))
					env.After(at, func() { log = append(log, fmt.Sprintf("event@%v", time.Duration(env.Now()))) })
				})
			})
		}
		s.Boot()
		s.At(at, note("cb1"))
		s.AddSampler(at, func(now int64) { log = append(log, fmt.Sprintf("tick@%v", time.Duration(now))) })
		s.At(at, func() {
			log = append(log, fmt.Sprintf("cb2@%v", time.Duration(s.shards[0].now)))
			s.At(0, note("cb3")) // the past: clamped to this instant
		})
		s.Run(at)
		want := "[before before before before cb1 tick@10ms cb2@10ms cb3 event@10ms event@10ms event@10ms event@10ms]"
		if got := fmt.Sprint(log); got != want {
			t.Errorf("shards=%d:\n got %s\nwant %s", shards, got, want)
		}
	}
}
