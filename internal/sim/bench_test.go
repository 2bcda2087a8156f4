package sim

import (
	"container/heap"
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/wire"
)

// ── container/heap baseline ────────────────────────────────────────────
//
// oldSched replicates the scheduler this kernel shipped with before the
// flat-slot rework: a container/heap of *oldEvent pointers, one heap
// allocation per scheduled event plus interface-boxed Push/Pop calls, and
// a closure wrapping every delivery. It exists only as the benchmark
// baseline the alloc assertions compare against.

type oldEvent struct {
	at  int64
	seq uint64
	fn  func()
}

type oldEventHeap []*oldEvent

func (h oldEventHeap) Len() int { return len(h) }
func (h oldEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oldEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oldEventHeap) Push(x any)   { *h = append(*h, x.(*oldEvent)) }
func (h *oldEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type oldSched struct {
	now    int64
	seq    uint64
	events oldEventHeap
}

func (s *oldSched) schedule(at int64, fn func()) {
	s.seq++
	heap.Push(&s.events, &oldEvent{at: at, seq: s.seq, fn: fn})
}

func (s *oldSched) drain() int {
	n := 0
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*oldEvent)
		s.now = e.at
		e.fn()
		n++
	}
	return n
}

// deliverOld mimics the old kernel's per-message scheduling: an arrival
// closure capturing the destination state, which on pop wraps the decode
// and handler into a second deferred-exec closure — the two per-message
// closure allocations (plus the *oldEvent) the typed-event rework removed.
func (s *oldSched) deliverOld(at int64, dst *int, frame []byte, handle func(*int, []byte)) {
	s.schedule(at, func() {
		fn := func() { handle(dst, frame) }
		fn()
	})
}

// ── benchmark workload helpers ─────────────────────────────────────────

// benchSink defeats dead-code elimination in the benchmark loops.
var benchSink int

// ── benchmarks ─────────────────────────────────────────────────────────

// BenchmarkKernelScheduleDeliver measures the flat scheduler's
// schedule→pop→dispatch path in steady state: typed delivery events on a
// pooled arena, zero allocations per event once the arena is warm. Its
// baseline twin below does the identical work through the old
// container/heap-of-pointers design; the alloc assertions in
// TestScheduleDeliverAllocs compare the two.
func BenchmarkKernelScheduleDeliver(b *testing.B) {
	k, ns := idleShard()
	fn := func() { benchSink++ }
	// Warm the arena so the measured loop reuses pooled slots.
	for i := 0; i < batchSize; i++ {
		k.scheduleExec(k.now+int64(i), ns, ns.epoch, fn)
	}
	k.run(k.now + batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.scheduleExec(k.now+1, ns, ns.epoch, fn)
		if (i+1)%batchSize == 0 {
			k.run(k.now + batchSize)
		}
	}
	k.run(k.now + batchSize)
}

// idleShard returns the kernel of a booted one-shard runtime and its one
// no-op node, for the heap-internal benchmarks and gates.
func idleShard() (*Kernel, *nodeState) {
	s := New(Config{Seed: 1, HW: hwFast()})
	s.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	s.Boot()
	return s.shards[0], s.shards[0].find(0)
}

const batchSize = 256

// BenchmarkContainerHeapScheduleDeliver is the pre-rework baseline:
// per-event heap allocation, interface boxing through container/heap, and
// the per-message delivery closures.
func BenchmarkContainerHeapScheduleDeliver(b *testing.B) {
	s := &oldSched{}
	frame := make([]byte, 64)
	handle := func(dst *int, frame []byte) { *dst += len(frame) }
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.deliverOld(s.now+1, &sink, frame, handle)
		if (i+1)%batchSize == 0 {
			s.drain()
		}
	}
	s.drain()
	benchSink += sink
}

// BenchmarkKernelSendReceive is the end-to-end message path — encode,
// network model, arrival, decode, deliver — the number that bounds sweep
// throughput.
func BenchmarkKernelSendReceive(b *testing.B) {
	s, env := allocGateSharded(1)
	e := &wire.Envelope{Kind: wire.KindApp, FromInc: 1, Payload: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SSN = ids.SSN(i)
		env.Send(1, e)
		if (i+1)%batchSize == 0 {
			s.Run(time.Duration(s.Now()) + time.Second)
		}
	}
	s.Run(time.Duration(s.Now()) + time.Second)
}

// BenchmarkKernelTimerChurn arms and immediately cancels timers — the
// retry-timer pattern the protocols use — exercising heap removal and the
// slot free list. Before real cancellation every iteration left a dead
// event in the queue until its deadline.
func BenchmarkKernelTimerChurn(b *testing.B) {
	k, env := idleShard()
	fn := func() { benchSink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.After(time.Hour, fn).Stop()
	}
	if len(k.heap) != 0 {
		b.Fatalf("heap holds %d events after churn; Stop must release slots", len(k.heap))
	}
}

// ── allocation assertions ──────────────────────────────────────────────

// flatAllocsPerEvent measures steady-state allocations per scheduled-and-
// dispatched event on the flat scheduler, each enqueued by schedule.
func flatAllocsPerEvent(schedule func(k *Kernel, ns *nodeState, at int64, fn func())) float64 {
	k, ns := idleShard()
	fn := func() { benchSink++ }
	for i := 0; i < batchSize; i++ {
		schedule(k, ns, k.now+int64(i), fn)
	}
	k.run(k.now + batchSize)
	return testing.AllocsPerRun(50, func() {
		for i := 0; i < batchSize; i++ {
			schedule(k, ns, k.now+1, fn)
		}
		k.run(k.now + batchSize)
	}) / batchSize
}

// baselineAllocsPerEvent measures the same loop on the container/heap
// replica.
func baselineAllocsPerEvent() float64 {
	s := &oldSched{}
	frame := make([]byte, 64)
	handle := func(dst *int, frame []byte) { *dst += len(frame) }
	var sink int
	return testing.AllocsPerRun(50, func() {
		for i := 0; i < batchSize; i++ {
			s.deliverOld(s.now+1, &sink, frame, handle)
		}
		s.drain()
	}) / batchSize
}

// TestScheduleDeliverAllocs is the allocation regression gate CI runs: the
// flat scheduler must stay allocation-free in steady state, and in
// particular at least 2× below the container/heap baseline it replaced.
func TestScheduleDeliverAllocs(t *testing.T) {
	flat := flatAllocsPerEvent(func(k *Kernel, ns *nodeState, at int64, fn func()) { k.scheduleExec(at, ns, ns.epoch, fn) })
	base := baselineAllocsPerEvent()
	t.Logf("allocs/event: flat=%.3f baseline=%.3f", flat, base)
	if flat != 0 {
		t.Errorf("flat scheduler allocates %.3f/event in steady state, want 0", flat)
	}
	if base < 1 {
		t.Errorf("baseline allocates %.3f/event; the replica no longer models container/heap costs", base)
	}
	if 2*flat > base {
		t.Errorf("flat scheduler must allocate at least 2x less than the baseline: flat=%.3f baseline=%.3f", flat, base)
	}
	// The generic callback event: harness At callbacks, stable-write completions.
	if got := flatAllocsPerEvent(func(k *Kernel, _ *nodeState, at int64, fn func()) { k.schedule(at, fn) }); got != 0 {
		t.Errorf("callback events allocate %.3f/event in steady state, want 0", got)
	}
}

// TestTimerChurnAllocs pins the retry-timer pattern: arm+Stop allocates
// nothing — the handle is a value, the queue slot is recycled.
func TestTimerChurnAllocs(t *testing.T) {
	_, env := idleShard()
	fn := func() { benchSink++ }
	got := testing.AllocsPerRun(100, func() {
		env.After(time.Hour, fn).Stop()
	})
	if got != 0 {
		t.Errorf("timer arm+stop allocates %.1f, want 0", got)
	}
}
