package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/trace"
	"rollrec/internal/workload"
)

// goldenTraceHash pins the full event schedule of the seeded two-failure
// reference run below. It is an FNV-1a fold, one lane per process, over every
// structured trace event (virtual time, order within the process, event
// name, tags) the run emits — sends, receives, storage accesses,
// crash/restart lifecycle, and recovery-phase spans — so ANY reordering,
// insertion, or removal of a scheduled event changes it. Scheduler
// optimizations must keep this hash fixed: the kernel's event *sequence* is
// part of the repo's compatibility contract (DESIGN.md §2, §9). It must also
// be the same for EVERY shard count and GOMAXPROCS value: the partitioning
// may only change wall-clock time, never any process's execution. CI runs the
// tests below under -cpu 1,4.
//
// Regenerate (only after an intended behavior change) with `make regen`,
// which prints the new value (go test ./internal/cluster -run Golden -v) and
// re-seeds everything downstream of it.
const goldenTraceHash uint64 = 0x6522682d9e003ae4

// hashTracer folds every trace callback into an FNV-1a accumulator. Each
// record mixes a per-callback tag, the arrival index (the "seq" of the
// schedule), and the callback's full argument list, so the hash is a
// fingerprint of the entire deterministic event sequence it is shown: one
// process's, as a lane of laneTracer.
type hashTracer struct {
	h    uint64
	seq  uint64
	refs uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newHashTracer() *hashTracer { return &hashTracer{h: fnvOffset} }

func (t *hashTracer) mix(vals ...uint64) {
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			t.h ^= v & 0xff
			t.h *= fnvPrime
			v >>= 8
		}
	}
}

func (t *hashTracer) mixString(s string) {
	for i := 0; i < len(s); i++ {
		t.h ^= uint64(s[i])
		t.h *= fnvPrime
	}
}

func (t *hashTracer) record(kind uint64, ts int64, proc int32, name string, tag trace.Tag) {
	t.seq++
	t.mix(kind, t.seq, uint64(ts), uint64(uint32(proc)))
	t.mixString(name)
	t.mix(uint64(tag.Kind), uint64(tag.Inc), uint64(tag.Arg))
}

func (t *hashTracer) Enabled() bool { return true }

func (t *hashTracer) Instant(ts int64, proc int32, name string, tag trace.Tag) {
	t.record(1, ts, proc, name, tag)
}

func (t *hashTracer) Begin(ts int64, proc int32, name string, tag trace.Tag) trace.SpanRef {
	t.record(2, ts, proc, name, tag)
	t.refs++
	return trace.SpanRef(t.refs)
}

func (t *hashTracer) End(ref trace.SpanRef, ts int64) {
	t.seq++
	t.mix(3, t.seq, uint64(ref), uint64(ts))
}

func (t *hashTracer) Span(ts, dur int64, proc int32, name string, tag trace.Tag) {
	t.record(4, ts, proc, name, tag)
	t.mix(uint64(dur))
}

// laneTracer is the tracer of every golden run: one lane per process, merged
// canonically at the end. Every trace emission in the tree is
// attributed to the process whose execution produced it, so each lane has
// exactly one writer at any instant (its owner's shard goroutine within a
// window, the coordinator between windows) and the window barrier provides
// the cross-window happens-before — no locking needed. A global
// arrival-order fold would NOT be shard-count invariant; per-process order
// is.
type laneTracer struct {
	lanes []*hashTracer // index proc+1; lane 0 is the storage pseudo-process
}

func newLaneTracer(n int) *laneTracer {
	lt := &laneTracer{lanes: make([]*hashTracer, n+1)}
	for i := range lt.lanes {
		lt.lanes[i] = newHashTracer()
	}
	return lt
}

func (lt *laneTracer) lane(proc int32) *hashTracer { return lt.lanes[proc+1] }

func (lt *laneTracer) Enabled() bool { return true }

func (lt *laneTracer) Instant(ts int64, proc int32, name string, tag trace.Tag) {
	lt.lane(proc).Instant(ts, proc, name, tag)
}

// Begin tags the lane-local ref with the owning lane so End — the one
// callback with no proc argument — can route back to it.
func (lt *laneTracer) Begin(ts int64, proc int32, name string, tag trace.Tag) trace.SpanRef {
	ref := lt.lane(proc).Begin(ts, proc, name, tag)
	return trace.SpanRef(uint64(uint32(proc+1))<<32 | uint64(uint32(ref)))
}

func (lt *laneTracer) End(ref trace.SpanRef, ts int64) {
	proc := int32(uint32(uint64(ref)>>32)) - 1
	lt.lane(proc).End(trace.SpanRef(uint32(uint64(ref))), ts)
}

func (lt *laneTracer) Span(ts, dur int64, proc int32, name string, tag trace.Tag) {
	lt.lane(proc).Span(ts, dur, proc, name, tag)
}

// sum folds the lanes in ascending process order into one fingerprint and
// returns it with the total event count.
func (lt *laneTracer) sum() (uint64, uint64) {
	m := newHashTracer()
	var events uint64
	for _, l := range lt.lanes {
		m.mix(l.h, l.seq)
		events += l.seq
	}
	return m.h, events
}

// The pinned scenario: four processes on 1995 hardware, an overlapping
// two-failure schedule (the second crash lands mid-recovery of the first),
// run to quiescence. Config, plan, and horizon are factored out so the
// timeline tests can rerun the identical scenario with a sampler attached.
const goldenHorizon = 18 * time.Second

func goldenConfig(tr trace.Tracer) Config {
	return Config{
		N:               4,
		F:               2,
		Seed:            1,
		HW:              node.Profile1995(),
		Style:           recovery.NonBlocking,
		App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
		CheckpointEvery: 4 * time.Second,
		StatePad:        1 << 20,
		Tracer:          tr,
	}
}

func goldenPlan() failure.Plan {
	return failure.Plan{
		{At: 6 * time.Second, Proc: 1},
		{At: 8 * time.Second, Proc: 2},
	}
}

func goldenRun(shards int) (*Cluster, *laneTracer) {
	lt := newLaneTracer(4)
	cfg := goldenConfig(lt)
	cfg.Shards = shards
	c := New(cfg)
	c.ApplyPlan(goldenPlan())
	c.Run(goldenHorizon)
	return c, lt
}

func checkGolden(t *testing.T, c *Cluster, lt *laneTracer) {
	t.Helper()
	if errs := c.Check(); len(errs) > 0 {
		t.Fatalf("golden run inconsistent: %v", errs)
	}
	h, n := lt.sum()
	t.Logf("lane fingerprint = %#x over %d trace events", h, n)
	if h != goldenTraceHash {
		t.Fatalf("lane fingerprint = %#x over %d trace events, want %#x\n"+
			"the event sequence changed; if intended, run `make regen`", h, n, goldenTraceHash)
	}
}

// TestGoldenTraceHash is the determinism regression gate for the simulator
// scheduler: the hashed event trace of the seeded two-failure run, on the
// default shard count, must match the committed golden value.
func TestGoldenTraceHash(t *testing.T) {
	c, lt := goldenRun(0)
	checkGolden(t, c, lt)
}

// TestRunCountsDispatchedEvents: the kernel has one event count. In the
// golden scenario the two recoveries stop their retry and replay timers, and
// still the Run returns of a one-shard cluster sum to Kernel.Steps(): a
// stopped timer is not an event.
func TestRunCountsDispatchedEvents(t *testing.T) {
	c := New(goldenConfig(nil))
	c.ApplyPlan(goldenPlan())
	var sum int64
	for until := time.Second; until <= goldenHorizon; until += time.Second {
		n, err := c.RunContext(context.Background(), until)
		if err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	if steps := c.Kernel().Steps(); sum != steps {
		t.Fatalf("Run returns sum to %d events, Kernel.Steps() = %d", sum, steps)
	}
}

// TestShardedGoldenTraceHash runs the same scenario on 1, 2 and 4 shards: the
// committed fingerprint every time proves the event schedule is a function of
// (seed, scenario) alone, independent of the partitioning and of GOMAXPROCS.
func TestShardedGoldenTraceHash(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, lt := goldenRun(shards)
			checkGolden(t, c, lt)
		})
	}
}

// TestGoldenTraceHashRepeatable guards the guard: two runs in one process
// must hash identically, so a failure of TestGoldenTraceHash can only mean
// the schedule changed, never that the hash itself is unstable.
func TestGoldenTraceHashRepeatable(t *testing.T) {
	_, a := goldenRun(0)
	_, b := goldenRun(0)
	ha, na := a.sum()
	hb, nb := b.sum()
	if ha != hb || na != nb {
		t.Fatalf("same-process runs diverged: %#x/%d vs %#x/%d", ha, na, hb, nb)
	}
}
