// Sharded conservative-window scheduling (DESIGN §2) is the runtime every
// cluster runs on: its processes are partitioned across one or more Kernel
// instances that synchronize at fixed virtual-time boundaries.
//
// The conservative-window argument: every frame takes at least the minimum
// network latency L to arrive, so an event executed at virtual time t can
// influence another process no earlier than t+L. Running every shard
// independently over the window [T, T+W) with W <= L is therefore exactly
// equivalent to interleaved execution, provided frames sent to another
// shard during the window are exchanged at the boundary.
//
// Every kernel event is ordered by the key (at, phase, tie), where phase
// counts the coordinator's flushes (Kernel.less). An arrival carries the
// phase it was sent in, sorts after that phase's ordinary events, and ties
// by (to, from, the sender's send count): a key that names no shard, so the
// order a destination dispatches in is independent of how the processes are
// partitioned. A frame to a node of the sender's own shard therefore goes
// straight onto the heap (at one shard, every frame does); only a frame for
// another shard waits in its sender's outbox, and a flush pushes those
// frames in any order. That makes every per-process execution, and hence the
// merged golden event-trace hash, byte-identical for any shard count (pinned
// by TestShardedGoldenTraceHash and TestShardArrivalKeyOrder).
//
// Every runtime is this coordinator, tests included: New is NewSharded at one
// shard, so there is one event order for every run.
//
// What observes or drives the whole cluster — harness callbacks (At) and
// samplers (AddSampler) — lives in a coordinator-level queue and runs between
// shard runs with every shard parked: a window is split at the callback's
// instant, the callback sees the state after every event before that instant
// and none at it, and the phase still moves only at grid boundaries. Their
// order is therefore a function of virtual time and registration order alone.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
)

// outMsg is a frame in flight with its arrival key, all but the phase. A
// frame for another shard waits in its sender's outbox (Kernel.out) until
// the flush that closes the phase it was sent in.
type outMsg struct {
	at       int64
	sentAt   int64
	count    uint64 // the sender's send count (nodeState.sent)
	from, to ids.ProcID
	frame    []byte
}

// coEvent is one entry of the coordinator's queue, ordered by (at, seq): a
// harness callback, or a sampler's next tick (every > 0), which is re-armed
// under the sequence number of its AddSampler call.
type coEvent struct {
	at    int64
	seq   uint64
	every int64
	fn    func()
}

func (a coEvent) compare(b coEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// fanOutMin is the window density from which the barrier pays for itself: a
// window runs its shards on separate goroutines only when the previous window
// executed at least this many events (all shards together), and on the
// calling goroutine, in shard order, otherwise. Starting two goroutines,
// waking a second thread and waiting for it costs as much host time as a few
// dozen events, and most windows of a sparse run hold fewer (DESIGN §5 has
// the density histograms and the 16/32/64 sweep behind the value).
const fanOutMin = 32

// WindowStats is the coordinator's own account of how it ran (see Windows).
type WindowStats struct {
	Inline    int64 // windows run shard by shard on the calling goroutine
	FannedOut int64 // windows run with one goroutine per shard
	Events    int64 // events those windows executed
}

// Total is the number of windows run.
func (w WindowStats) Total() int64 { return w.Inline + w.FannedOut }

// Sharded coordinates one or more Kernels over a shared window grid. Nodes are
// assigned to shards round-robin by process id; each shard owns its nodes'
// event heap and the links they send on (a link is its sender's state, so no
// two shards ever share one). Windows are aligned to multiples of W
// so the boundary schedule — and with it every arrival injection order — is
// a function of virtual time alone, not of the shard count or of how many
// Run calls covered the horizon.
type Sharded struct {
	window int64
	shards []*Kernel
	now    int64
	nApp   int

	// queue holds the pending callbacks in firing order; it is short (one
	// arrival per traffic client, one tick per sampler), so it is a sorted
	// slice.
	queue []coEvent
	seq   uint64

	// A window fans out when the window before it executed at least fanOutAt
	// events (prev). fanOutAt is fanOutMin, or out of reach where goroutines
	// cannot help (see NewSharded); tests force either path through it.
	fanOutAt int64
	prev     int64
	stats    WindowStats
}

// NewSharded returns a coordinator over `shards` kernels built from cfg.
// The window width is the minimum network latency, which the conservative
// argument above requires to be a lower bound on every frame's flight: jitter
// only delays an arrival, and a drop removes it. Both are drawn on the
// sender's own link in its send order, the same for any partitioning.
func NewSharded(cfg Config, shards int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("sim: NewSharded: shard count %d < 1", shards))
	}
	if cfg.HW.Net.Latency <= 0 {
		panic("sim: NewSharded: hardware profile has no minimum network latency")
	}
	s := &Sharded{
		window: int64(cfg.HW.Net.Latency),
		shards: make([]*Kernel, shards),

		fanOutAt: fanOutMin,
	}
	if shards == 1 || runtime.GOMAXPROCS(0) == 1 {
		// Nothing to overlap, or one thread to overlap it on: a goroutine
		// per shard would only add the barrier.
		s.fanOutAt = math.MaxInt64
	}
	for i := range s.shards {
		s.shards[i] = &Kernel{cfg: cfg, tr: trace.OrNop(cfg.Tracer), free: -1, coord: s}
	}
	return s
}

// New returns the one-shard runtime.
func New(cfg Config) *Sharded { return NewSharded(cfg, 1) }

// Single returns the kernel when there is exactly one shard, else nil. It is
// the way to the one observer that needs one global dispatch order: the step
// probe with CrashAtStep (step.go). The structured trace, and the text log
// rendered from it, need no such order.
func (s *Sharded) Single() *Kernel {
	if len(s.shards) != 1 {
		return nil
	}
	return s.shards[0]
}

// Windows reports how many windows have run so far on each of the two paths
// and how many events they held, so the density that drives the per-window
// choice is visible without a profiler.
func (s *Sharded) Windows() WindowStats { return s.stats }

// CrashesApplied sums the crash injections that took effect (the victim had a
// live process image) across shards. Schedules synthesized by the explorer
// may re-crash a process that is still down; those injections are no-ops and
// must not be counted against liveness.
func (s *Sharded) CrashesApplied() int {
	total := 0
	for _, k := range s.shards {
		total += k.crashApplied
	}
	return total
}

func (s *Sharded) shardFor(id ids.ProcID) *Kernel {
	m := int(id) % len(s.shards)
	if m < 0 {
		m += len(s.shards)
	}
	return s.shards[m]
}

// AddNode registers a process slot on its owning shard. Application
// processes must be added with ids 0..n-1; the stable-storage
// pseudo-process uses ids.StorageProc.
func (s *Sharded) AddNode(id ids.ProcID, factory node.Factory) {
	s.shardFor(id).addNode(id, factory)
	if !id.IsStorage() {
		s.nApp++
	}
}

// Boot starts every node. Each shard's kernel reports the full cluster size
// through node.Env.N, not its own slice of it.
func (s *Sharded) Boot() {
	for _, k := range s.shards {
		k.boot()
	}
	// Close the boot phase: boot-time frames for other shards become
	// arrivals before the first window runs.
	s.flush()
}

// Now returns the coordinator's virtual clock.
func (s *Sharded) Now() int64 { return s.now }

// Up reports whether the node currently has a live process image (false for
// ids never registered).
func (s *Sharded) Up(id ids.ProcID) bool {
	ns := s.shardFor(id).find(id)
	return ns != nil && ns.up
}

// ProcOf returns the node's current process instance (nil while down or for
// ids never registered).
func (s *Sharded) ProcOf(id ids.ProcID) node.Process {
	if ns := s.shardFor(id).find(id); ns != nil {
		return ns.proc
	}
	return nil
}

// Metrics returns the accumulator of the given node; it panics on unknown ids
// (use Up/ProcOf for nil-safe liveness queries).
func (s *Sharded) Metrics(id ids.ProcID) *metrics.Proc { return s.shardFor(id).node(id).met }

// Store returns the crash-surviving stable store of the given node; it panics
// on unknown ids.
func (s *Sharded) Store(id ids.ProcID) *storage.Store { return s.shardFor(id).node(id).stable }

// QueueDepth sums the queued events of every shard (a stopped timer holds no
// queue space), except the arrivals sent in the current phase: a frame is
// queued from the flush that closes the phase it was sent in, whether it
// waited in an outbox or not.
func (s *Sharded) QueueDepth() int {
	n := 0
	for _, k := range s.shards {
		n += len(k.heap) - k.early
	}
	return n
}

// InFlightFrames counts frames scheduled but not yet arrived, outboxed
// frames awaiting the next boundary included.
func (s *Sharded) InFlightFrames() int {
	n := 0
	for _, k := range s.shards {
		n += k.inflight + len(k.out)
	}
	return n
}

// At schedules a harness callback at absolute virtual time d from start: it
// runs on the calling goroutine after every event before that instant and
// before any event at it, same-instant callbacks in registration order.
// Negative times panic; past times run at the current instant. Call it from
// the harness or from another callback, never from a process handler.
func (s *Sharded) At(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: At(%v): negative schedule time", d))
	}
	s.enqueue(coEvent{at: max(int64(d), s.now), fn: fn})
}

// AddSampler adds a sampler: fn is invoked at every multiple of `every` in
// virtual time, as a callback like At's: a sample at boundary b sees every
// event with at < b and none with at >= b, and a run to `until` takes
// floor(until/every) samples, quiescent tail included. fn must not schedule
// events or touch kernel state; then the event sequence, the processed-event
// totals, and the golden trace hash are bit-identical with sampling on or off
// (running a window in two parts changes nothing a process can see).
// Samplers compose: each re-arms under the sequence number of its own call,
// so ticks of several samplers at one instant run in registration order. A
// non-positive interval panics.
func (s *Sharded) AddSampler(every time.Duration, fn func(now int64)) {
	if every <= 0 {
		panic(fmt.Sprintf("sim: AddSampler(%v): non-positive sampling interval", every))
	}
	step := int64(every)
	s.enqueue(coEvent{at: (s.now/step + 1) * step, every: step, fn: func() { fn(s.now) }})
}

// enqueue stamps e with the next sequence number, unless it is a sampler
// re-arming under its own, and inserts it in firing order.
func (s *Sharded) enqueue(e coEvent) {
	if e.seq == 0 {
		s.seq++
		e.seq = s.seq
	}
	i, _ := slices.BinarySearchFunc(s.queue, e, coEvent.compare)
	s.queue = slices.Insert(s.queue, i, e)
}

// fire parks every shard at instant at — hosted processes read the callback's
// time, not the last event's — and runs the callbacks due, in order, those
// registered meanwhile for this instant included.
func (s *Sharded) fire(at int64) {
	s.now = at
	for _, k := range s.shards {
		k.now = at
	}
	for len(s.queue) > 0 && s.queue[0].at <= at {
		e := s.queue[0]
		s.queue = slices.Delete(s.queue, 0, 1)
		if e.every > 0 { // a sampler tick: re-arm under its own sequence number
			e.at += e.every
			s.enqueue(e)
		}
		e.fn()
	}
}

// Cut severs the directed link from→to until Heal: from's frames on it are
// lost (metrics.Proc.Lost). The link is its sender's state, so this flips it
// on the sender's shard. Call it from the harness or a callback.
func (s *Sharded) Cut(from, to ids.ProcID) { s.shardFor(from).node(from).link(to).Cut = true }

// Heal restores the directed link from→to.
func (s *Sharded) Heal(from, to ids.ProcID) { s.shardFor(from).node(from).link(to).Cut = false }

// CrashAt schedules a crash of id at virtual time d from start, on the
// owning shard; negative times panic. Scheduled before Run (the harness
// pattern), the crash holds an earlier sequence number than any runtime event
// of its shard, so it pops first among the victim's same-instant events for
// any shard count.
func (s *Sharded) CrashAt(d time.Duration, id ids.ProcID) {
	if d < 0 {
		panic(fmt.Sprintf("sim: CrashAt(%v): negative schedule time", d))
	}
	k := s.shardFor(id)
	k.schedule(int64(d), func() { k.crash(id) })
}

// Run processes events until virtual time `until` (from simulation start);
// the clock then reads exactly `until`. It returns the number of events
// dispatched by this call.
func (s *Sharded) Run(until time.Duration) int64 {
	n, _ := s.RunContext(context.Background(), until)
	return n
}

// RunContext advances all shards window by window until virtual time
// `until`, exchanging buffered frames at every boundary. Cancellation is
// looked at between boundaries only — the shards themselves run without a
// context — so a cancelled run has finished its last window on every shard,
// resumes on the same grid and reproduces the identical event sequence.
func (s *Sharded) RunContext(ctx context.Context, until time.Duration) (int64, error) {
	limit := int64(until)
	var total int64
	// A run opens a phase. Sends issued between Run calls (harness-driven,
	// e.g. the alloc benchmarks) to another shard sit in the outboxes where
	// the fast-forward peek cannot see them; make them arrivals first.
	// Cluster runs leave the outboxes empty at every Run return (the tail
	// window flushes inside the loop).
	s.flush()
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		// Fast-forward: the next window is the grid cell holding the
		// earliest queued event or callback anywhere (idle cells have no
		// boundary effects — empty outboxes exchange nothing).
		next := int64(-1)
		if len(s.queue) > 0 {
			next = s.queue[0].at
		}
		for _, k := range s.shards {
			if at, ok := k.peekNextAt(); ok && (next < 0 || at < next) {
				next = at
			}
		}
		if next < 0 || next > limit {
			break
		}
		end := (max(next, s.now)/s.window + 1) * s.window
		// Tail window clamped at the horizon: events at `limit` itself
		// belong to this run (Kernel.run processes at <= limit), and
		// nothing they send can arrive before the grid boundary anyway.
		target := min(end-1, limit)
		for {
			// Split the window at the next callback's instant, if it has one:
			// run up to just before it, fire, go on. No flush in between.
			stop := target
			split := len(s.queue) > 0 && s.queue[0].at <= target
			if split {
				stop = s.queue[0].at - 1
			}
			if stop >= s.now { // else a callback clamped to an instant already run
				total += s.runWindow(stop)
				s.now = stop
			}
			if !split {
				break
			}
			s.fire(stop + 1)
		}
		s.flush()
	}
	// Settle: no event is left at or before the horizon, so every clock just
	// advances to it, as an idle kernel run directly would.
	for _, k := range s.shards {
		k.now = max(k.now, limit)
	}
	s.now = limit
	return total, nil
}

// runWindow runs every shard to target on the path the previous window's
// density selects, and keeps the account Windows reports.
func (s *Sharded) runWindow(target int64) (n int64) {
	if s.prev >= s.fanOutAt {
		n = s.fanOut(target)
		s.stats.FannedOut++
	} else {
		n = s.runInline(target)
		s.stats.Inline++
	}
	s.prev = n
	s.stats.Events += n
	return n
}

// A window runs every shard to the same inclusive target. The shards share
// no mutable state during a window — separate heaps, arenas, links, and
// outboxes — and every cross-shard effect waits in an outbox for the
// boundary flush, so neither the order in which the shards run nor whether
// they overlap can reorder events: runInline and fanOut are byte-identical in
// effect (pinned by TestWindowPathsAgree) and differ only in host time.

// runInline runs the shards one after the other on the calling goroutine.
func (s *Sharded) runInline(target int64) (total int64) {
	for i := range s.shards {
		total += s.runShard(i, target)
	}
	return total
}

// runShard runs shard i to target, naming the shard in any panic.
func (s *Sharded) runShard(i int, target int64) int64 {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: shard %d: %v", i, r))
		}
	}()
	return s.shards[i].run(target)
}

// fanOut runs the shards in parallel, one goroutine each, and waits for all
// of them; it only shortens wall-clock time (the -cpu 1,4 golden test).
func (s *Sharded) fanOut(target int64) (total int64) {
	var wg sync.WaitGroup
	counts := make([]int64, len(s.shards))
	panics := make([]any, len(s.shards))
	for i := range s.shards {
		wg.Add(1)
		//rollvet:allow goroutine -- conservative-window barrier: shards own disjoint kernels, synchronize only via wg, and every cross-shard effect moves through the boundary flush (DESIGN §2)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
				}
			}()
			counts[i] = s.shards[i].run(target)
		}(i)
	}
	wg.Wait()
	for i := range s.shards {
		if panics[i] != nil {
			panic(fmt.Sprintf("sim: shard %d: %v", i, panics[i]))
		}
		total += counts[i]
	}
	return total
}

// flush closes the current phase: it pushes every outboxed frame onto its
// destination shard under the key it was sent with — in any order, since the
// key alone places it — and moves every shard to the next phase.
func (s *Sharded) flush() {
	for _, k := range s.shards {
		for i := range k.out {
			s.shardFor(k.out[i].to).arrive(&k.out[i], k.phase)
			k.out[i] = outMsg{} // release the frame; the backing array is reused
		}
		k.out = k.out[:0]
	}
	for _, k := range s.shards {
		k.phase++
		k.early = 0
	}
}
