// Sharded conservative-window scheduling (DESIGN §2) is the runtime every
// cluster runs on: its processes are partitioned across one or more Kernel
// instances that synchronize at fixed virtual-time boundaries.
//
// The conservative-window argument: every frame takes at least the minimum
// network latency L to arrive, so an event executed at virtual time t can
// influence another process no earlier than t+L. Running every shard
// independently over the window [T, T+W) with W <= L is therefore exactly
// equivalent to interleaved execution, provided frames sent during the
// window are exchanged at the boundary. All sends — same-shard ones
// included — go through per-shard outboxes that the coordinator drains at
// each boundary in one globally sorted order, so the arrival sequence
// numbers a destination assigns are independent of how the processes are
// partitioned. That makes every per-process execution, and hence the merged
// golden event-trace hash, byte-identical for any shard count (pinned by
// TestShardedGoldenTraceHash).
//
// What observes or drives the whole cluster — harness callbacks (At) and the
// sampler (SetSampler) — lives in a coordinator-level queue and runs between
// shard runs with every shard parked: a window is split at the callback's
// instant, the callback sees the state after every event before that instant
// and none at it, and the outboxes still drain only at grid boundaries. Their
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
)

// outMsg is one frame buffered in a shard outbox between windows.
type outMsg struct {
	at     int64
	from   ids.ProcID
	to     ids.ProcID
	frame  []byte
	sentAt int64
}

// coEvent is one entry of the coordinator's queue, ordered by (at, seq): a
// harness callback, or the sampler's next tick (every > 0), which is re-armed
// under the sequence number of its SetSampler call.
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

func (a outMsg) compare(b outMsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.to, b.to); c != 0 {
		return c
	}
	return cmp.Compare(a.from, b.from)
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

// Sharded coordinates several Kernels over a shared window grid. Nodes are
// assigned to shards round-robin by process id; each shard owns its nodes'
// event heap and its own network model (link state is source-owned, so the
// per-shard models never disagree). Windows are aligned to multiples of W
// so the boundary schedule — and with it every arrival injection order — is
// a function of virtual time alone, not of the shard count or of how many
// Run calls covered the horizon.
type Sharded struct {
	window int64
	shards []*Kernel
	outs   [][]outMsg
	batch  []outMsg // flush scratch, reused between boundaries
	now    int64
	nApp   int

	// queue holds the pending callbacks in firing order; it is short (one
	// arrival per traffic client, one sampler), so it is a sorted slice.
	queue      []coEvent
	seq        uint64
	samplerSeq uint64 // seq of the installed sampler's entry, 0 when none

	// A window fans out when the window before it executed at least fanOutAt
	// events (prev). fanOutAt is fanOutMin, or out of reach where goroutines
	// cannot help (see NewSharded); tests force either path through it.
	fanOutAt int64
	prev     int64
	stats    WindowStats
}

// NewSharded returns a coordinator over `shards` kernels built from cfg.
// The window width is the minimum network latency, which the conservative
// argument above requires to be an exact lower bound: the hardware profile
// must have zero jitter and zero drop rate (both would also draw per-shard
// randomness that depends on the partitioning).
func NewSharded(cfg Config, shards int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("sim: NewSharded: shard count %d < 1", shards))
	}
	if cfg.HW.Net.Latency <= 0 {
		panic("sim: NewSharded: hardware profile has no minimum network latency")
	}
	if cfg.HW.Net.Jitter != 0 || cfg.HW.Net.DropRate != 0 {
		panic("sim: NewSharded: conservative windows require zero jitter and zero drop rate")
	}
	s := &Sharded{
		window: int64(cfg.HW.Net.Latency),
		shards: make([]*Kernel, shards),
		outs:   make([][]outMsg, shards),

		fanOutAt: fanOutMin,
	}
	if shards == 1 || runtime.GOMAXPROCS(0) == 1 {
		// Nothing to overlap, or one thread to overlap it on: a goroutine
		// per shard would only add the barrier.
		s.fanOutAt = math.MaxInt64
	}
	for i := range s.shards {
		k := New(cfg)
		i := i
		k.arrivalSink = func(at int64, from, to ids.ProcID, frame []byte, sentAt int64) {
			s.outs[i] = append(s.outs[i], outMsg{at: at, from: from, to: to, frame: frame, sentAt: sentAt})
		}
		s.shards[i] = k
	}
	return s
}

// Single returns the kernel when there is exactly one shard, else nil. It is
// the way to the two observers that need one global dispatch order: the step
// probe with CrashAtStep (step.go) and the text Config.Trace.
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

// CrashesApplied sums the effective crash injections across shards.
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

// AddNode registers a process slot on its owning shard.
func (s *Sharded) AddNode(id ids.ProcID, factory node.Factory) {
	s.shardFor(id).AddNode(id, factory)
	if !id.IsStorage() {
		s.nApp++
	}
}

// Boot starts every node. Each shard's kernel reports the full cluster size
// through node.Env.N, not its own slice of it.
func (s *Sharded) Boot() {
	for _, k := range s.shards {
		k.nOverride = s.nApp
	}
	for _, k := range s.shards {
		k.Boot()
	}
	// Boot-time sends landed in the outboxes; make them arrivals before the
	// first window runs.
	s.flush()
}

// Now returns the coordinator's virtual clock.
func (s *Sharded) Now() int64 { return s.now }

// Up reports whether the node currently has a live process image.
func (s *Sharded) Up(id ids.ProcID) bool { return s.shardFor(id).Up(id) }

// ProcOf returns the node's current process instance (nil while down).
func (s *Sharded) ProcOf(id ids.ProcID) node.Process { return s.shardFor(id).ProcOf(id) }

// Metrics returns the accumulator of the given node.
func (s *Sharded) Metrics(id ids.ProcID) *metrics.Proc { return s.shardFor(id).Metrics(id) }

// Store returns the crash-surviving stable store of the given node.
func (s *Sharded) Store(id ids.ProcID) *storage.Store { return s.shardFor(id).Store(id) }

// QueueDepth sums the queued events of every shard.
func (s *Sharded) QueueDepth() int {
	n := 0
	for _, k := range s.shards {
		n += k.QueueDepth()
	}
	return n
}

// InFlightFrames counts frames scheduled but not yet arrived, outboxed
// frames awaiting the next boundary included.
func (s *Sharded) InFlightFrames() int {
	n := 0
	for i, k := range s.shards {
		n += k.InFlightFrames() + len(s.outs[i])
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

// SetSampler installs fn to be invoked at every multiple of `every` in
// virtual time, as a callback like At's: a sample at boundary b sees every
// event with at < b and none with at >= b, and a run to `until` takes
// floor(until/every) samples, quiescent tail included. fn must not schedule
// events or touch kernel state; then the event sequence, the processed-event
// totals, and the golden trace hash are bit-identical with sampling on or off
// (running a window in two parts changes nothing a process can see). A nil
// fn detaches the sampler; installing replaces the previous one.
func (s *Sharded) SetSampler(every time.Duration, fn func(now int64)) {
	if s.samplerSeq != 0 {
		s.queue = slices.DeleteFunc(s.queue, func(e coEvent) bool { return e.seq == s.samplerSeq })
		s.samplerSeq = 0
	}
	if fn == nil {
		return
	}
	if every <= 0 {
		panic(fmt.Sprintf("sim: SetSampler(%v): non-positive sampling interval", every))
	}
	step := int64(every)
	s.enqueue(coEvent{at: (s.now/step + 1) * step, every: step, fn: func() { fn(s.now) }})
	s.samplerSeq = s.seq
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
		if e.every > 0 { // re-arm first: the tick may detach or replace its sampler
			e.at += e.every
			s.enqueue(e)
		}
		e.fn()
	}
}

// CrashAt schedules a crash of id at virtual time d from start, on the
// owning shard. Scheduled before Run (the harness pattern), the crash holds
// an earlier sequence number than any runtime event of its shard, so it pops
// first among the victim's same-instant events for any shard count.
func (s *Sharded) CrashAt(d time.Duration, id ids.ProcID) {
	s.shardFor(id).CrashAt(d, id)
}

// Run processes events until virtual time `until`; see Kernel.Run.
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
	// Sends issued between Run calls (harness-driven, e.g. the alloc
	// benchmarks) sit in the outboxes where the fast-forward peek cannot see
	// them; make them arrivals first. Cluster runs leave the outboxes empty
	// at every Run return (the tail window flushes inside the loop), so this
	// is a no-op there.
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
		// belong to this run (Kernel.Run processes at <= until), and
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
	// Settle: advance every clock to the horizon and account for cancelled
	// deadlines inside it, exactly like an idle kernel run directly would. No
	// event is left to execute at or before the horizon, so this is not a
	// window and never worth a goroutine.
	total += s.runInline(limit)
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
// no mutable state during a window — separate heaps, arenas, networks, and
// outboxes — and every cross-shard effect waits in an outbox for the sorted
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
	return s.shards[i].Run(time.Duration(target))
}

// fanOut runs the shards in parallel, one goroutine each, and waits for all
// of them; it only shortens wall-clock time (the -cpu 1,4 golden test).
func (s *Sharded) fanOut(target int64) (total int64) {
	until := time.Duration(target)
	var wg sync.WaitGroup
	counts := make([]int64, len(s.shards))
	panics := make([]any, len(s.shards))
	for i := range s.shards {
		wg.Add(1)
		//rollvet:allow goroutine -- conservative-window barrier: shards own disjoint kernels, synchronize only via wg, and every cross-shard effect moves through the sorted boundary flush (DESIGN §2)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
				}
			}()
			counts[i] = s.shards[i].Run(until)
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

// flush drains every outbox and injects the frames as arrival events on
// their destination shards, in one globally sorted order. The stable
// (at, to, from) sort is what makes injection — and therefore the sequence
// numbers the destination kernel assigns — independent of the partitioning:
// ties beyond the key can only be frames of one sender to one receiver,
// which a single outbox already holds in send order.
func (s *Sharded) flush() {
	batch := s.batch[:0]
	for i := range s.outs {
		batch = append(batch, s.outs[i]...)
		// Release the frame references; the backing array is reused.
		for j := range s.outs[i] {
			s.outs[i][j] = outMsg{}
		}
		s.outs[i] = s.outs[i][:0]
	}
	// Most batches are a frame or three from one outbox, already in order:
	// look before moving 56-byte values through a comparator.
	if !slices.IsSortedFunc(batch, outMsg.compare) {
		slices.SortStableFunc(batch, outMsg.compare)
	}
	for i := range batch {
		m := &batch[i]
		dk := s.shardFor(m.to)
		dk.scheduleArrive(m.at, dk.find(m.to), m.frame, m.sentAt)
		batch[i] = outMsg{}
	}
	s.batch = batch[:0]
}
