// Package sim is a deterministic discrete-event simulator that executes
// node.Process instances in virtual time.
//
// Every run with the same configuration and seed produces the identical
// event sequence, which is what makes the failure-injection experiments and
// the golden-run consistency checks possible. The kernel owns the clock,
// the event queue, the network model, and per-node state (stable storage
// survives crashes; the process image does not).
//
// The scheduler is built for throughput: events live in a flat slot arena
// ([]event) recycled through a free list, ordered by an index-based 4-ary
// min-heap, so the schedule/deliver hot path is allocation-free in steady
// state (no per-event heap allocation, no interface boxing — see
// bench_test.go for the container/heap baseline it replaced). The hottest
// event kinds (network arrival, timer fire, deferral-queue wake) are encoded
// as typed slot fields instead of closures. Timers support real
// cancellation: Stop removes the event from the heap and recycles its slot
// immediately, while the deadline is credited to the processed-event
// accounting so Run totals — and therefore BENCH snapshot cells — are
// bit-identical to a scheduler without cancellation.
package sim

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/netmodel"
	"rollrec/internal/node"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
)

// Config parameterizes a simulation.
type Config struct {
	// Seed drives every random stream in the simulation.
	Seed int64
	// HW is the hardware cost model.
	HW node.Hardware
	// Trace, if non-nil, receives human-readable event lines.
	Trace io.Writer
	// Tracer, if non-nil, records structured events and spans (crash /
	// restart, frame traffic, storage accesses) for timeline export. Nil
	// disables tracing at no measurable cost.
	Tracer trace.Tracer
	// MaxEvents bounds the total number of processed events as a runaway
	// guard; zero selects a generous default.
	MaxEvents int64
	// Ignored: FIFO busy deferral is the only discipline (see deferItem). The
	// field survives because the frozen benchmark/ module sets it.
	FIFODefer bool
}

const defaultMaxEvents = 200_000_000

// Event kinds. evFunc is the generic closure event (harness callbacks,
// crash restarts, storage completions); the message hot path uses typed
// kinds so scheduling a delivery allocates nothing.
const (
	// evFunc runs fn.
	evFunc uint8 = iota
	// evExec runs ns.exec(epoch, fn): timer fires and deferred callbacks.
	evExec
	// evArrive is a frame reaching its destination's network interface
	// (ns may be nil for frames addressed to an unregistered node).
	evArrive
	// evRetired was the re-pushed busy-deferred delivery; never scheduled.
	// The value stays so StepKindDeliver, which the frozen benchmark/ module
	// names, keeps a kind of its own.
	evRetired
	// evWake drains one item from a node's FIFO deferral queue; epoch-guarded
	// like exec.
	evWake
)

// event is one scheduled callback slot; seq breaks ties deterministically.
// Slots are pooled: while queued, pos is the index in Kernel.heap; while
// free, nextFree links the free list and gen has been bumped so stale
// timer handles can detect reuse. Pointers into the arena go stale the
// moment a slot is released or the backing array grows — copy the slot out
// by value (as RunContext does) before any call that can touch the arena.
//
//rollvet:pooled
type event struct {
	at     int64
	seq    uint64
	gen    uint64 // bumped on release; validates node.Timer handles
	epoch  uint64 // owning process incarnation (evExec, evWake)
	ns     *nodeState
	fn     func()
	frame  []byte
	sentAt int64 // virtual send time (evArrive)
	pos    int32 // heap index while queued
	next   int32 // free-list link while free
	kind   uint8
}

// credit records the deadline of a cancelled event. Cancelled timers are
// removed from the heap at Stop time (releasing the slot and the callback),
// but their would-have-popped deadline still counts toward Run's processed
// totals — so event accounting, MaxEvents, and BENCH sim_events stay
// bit-identical whether or not a workload cancels timers.
type credit struct {
	at  int64
	seq uint64
}

// Kernel is the simulation instance. It is not safe for concurrent use:
// construct, add nodes, then drive it from a single goroutine.
type Kernel struct {
	cfg       Config
	tr        trace.Tracer
	now       int64
	seq       uint64
	slots     []event  // event arena; index = slot id
	heap      []int32  // 4-ary min-heap of slot ids ordered by (at, seq)
	free      int32    // free-list head into slots, -1 when empty
	cancelled []credit // binary min-heap of cancelled deadlines
	net       *netmodel.Network
	nodes     []*nodeState // index id+1 (ids.StorageProc is -1); see find
	order     []ids.ProcID // insertion order, for deterministic boot
	nApp      int
	count     int64
	inflight  int // frames scheduled to arrive but not yet popped
	// rx is the one envelope every frame is decoded into, through the one
	// decoder whose buffers hold its Dets; a handler returns (having kept
	// what it needs, wire.Envelope.Keep) before the next decode.
	rx  wire.Envelope
	dec wire.Decoder

	// Sharded-mode hooks (see shard.go). arrivalSink, when non-nil,
	// intercepts every scheduled arrival instead of enqueueing it locally:
	// the coordinator buffers it and injects it into the owning shard at the
	// next window boundary. nOverride makes nodeState.N() report the full
	// cluster size when this kernel owns only a shard of it.
	arrivalSink func(at int64, from, to ids.ProcID, frame []byte, sentAt int64)
	nOverride   int

	// Step-boundary hook (see step.go). dispatched counts events dispatched
	// so far; the boundary before dispatch i is step index i. Like the
	// sampler, the probe consumes no sequence numbers and no randomness, so
	// an attached probe leaves the event sequence bit-identical. stepCrash
	// maps step indices to crash victims injected at that boundary;
	// crashApplied counts the crashes that actually took effect (the victim
	// was up), which is what liveness checks must compare recoveries against
	// when a schedule may re-crash an already-down process.
	dispatched   int64
	stepFn       StepFunc
	stepCrash    map[int64][]ids.ProcID
	crashApplied int
}

// New returns a kernel with no nodes.
func New(cfg Config) *Kernel {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = defaultMaxEvents
	}
	return &Kernel{
		cfg:  cfg,
		tr:   trace.OrNop(cfg.Tracer),
		free: -1,
		net:  netmodel.New(cfg.HW.Net, cfg.Seed+1),
	}
}

// find returns the state of id, or nil for an id never registered (on a
// shard kernel: registered elsewhere). Every frame resolves its destination
// here, so the table is a slice, not a map.
func (k *Kernel) find(id ids.ProcID) *nodeState {
	if i := int(id) + 1; i >= 0 && i < len(k.nodes) {
		return k.nodes[i]
	}
	return nil
}

// AddNode registers a process slot. Application processes must be added
// with ids 0..n-1; the stable-storage pseudo-process uses ids.StorageProc.
func (k *Kernel) AddNode(id ids.ProcID, factory node.Factory) {
	i := int(id) + 1
	if i < 0 {
		panic(fmt.Sprintf("sim: AddNode(%v): not a process id", id))
	}
	if k.find(id) != nil {
		panic(fmt.Sprintf("sim: duplicate node %v", id))
	}
	ns := &nodeState{
		k:       k,
		id:      id,
		factory: factory,
		stable:  storage.NewStore(),
		met:     metrics.NewProc(),
	}
	if i >= len(k.nodes) {
		k.nodes = append(k.nodes, make([]*nodeState, i+1-len(k.nodes))...)
	}
	k.nodes[i] = ns
	k.order = append(k.order, id)
	if !id.IsStorage() {
		k.nApp++
	}
}

// Boot starts every registered node with restart = false, in registration
// order.
func (k *Kernel) Boot() {
	for _, id := range k.order {
		ns := k.find(id)
		ns.up = true
		ns.proc = ns.factory()
		ns.proc.Boot(ns, false)
	}
}

// Now returns the current virtual time in nanoseconds.
func (k *Kernel) Now() int64 { return k.now }

// QueueDepth returns the number of events currently queued (timer credits
// excluded — a cancelled timer holds no queue space).
func (k *Kernel) QueueDepth() int { return len(k.heap) }

// InFlightFrames returns the number of frames scheduled on the network but
// not yet arrived.
func (k *Kernel) InFlightFrames() int { return k.inflight }

// Net exposes the network model for partition injection and counters.
func (k *Kernel) Net() *netmodel.Network { return k.net }

// peekNextAt reports the virtual time of the earliest queued event, if any.
// The sharded coordinator uses it to fast-forward over empty windows;
// cancelled-timer credits are ignored (nothing executes at a credit, and
// RunContext accounts for every credit inside the window it runs).
func (k *Kernel) peekNextAt() (int64, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.slots[k.heap[0]].at, true
}

// node returns the state of id, panicking on unknown ids: asking for the
// metrics or storage of a node that was never added is a harness bug, and
// a named panic beats the anonymous nil dereference it used to be.
func (k *Kernel) node(id ids.ProcID) *nodeState {
	ns := k.find(id)
	if ns == nil {
		panic(fmt.Sprintf("sim: unknown node %v (was it registered with AddNode?)", id))
	}
	return ns
}

// Metrics returns the accumulator of the given node; it panics on unknown
// ids (use Up/ProcOf for nil-safe liveness queries).
func (k *Kernel) Metrics(id ids.ProcID) *metrics.Proc { return k.node(id).met }

// Store returns the crash-surviving stable store of the given node; it
// panics on unknown ids (use Up/ProcOf for nil-safe liveness queries).
func (k *Kernel) Store(id ids.ProcID) *storage.Store { return k.node(id).stable }

// ProcOf returns the current process instance of the node (nil while down
// or for ids never registered); tests use it for white-box inspection
// between Run calls.
func (k *Kernel) ProcOf(id ids.ProcID) node.Process {
	if ns := k.find(id); ns != nil {
		return ns.proc
	}
	return nil
}

// Up reports whether the node currently has a live process image (false
// for ids never registered).
func (k *Kernel) Up(id ids.ProcID) bool {
	ns := k.find(id)
	return ns != nil && ns.up
}

// At schedules a harness callback at absolute virtual time d from start.
// Negative times are harness typos and panic; past times (≥ 0 but before
// the clock) are clamped to "now" by schedule, the single clamp point.
func (k *Kernel) At(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: At(%v): negative schedule time", d))
	}
	k.schedule(int64(d), fn)
}

// ── Slot arena and 4-ary heap ──────────────────────────────────────────
//
// The heap orders slot indices by (at, seq); seq is unique, so the order
// is total and pop order is independent of heap arity or layout — the
// property the golden trace-hash test pins.

// alloc returns a free slot index, growing the arena only when the free
// list is empty.
func (k *Kernel) alloc() int32 {
	if i := k.free; i >= 0 {
		k.free = k.slots[i].next
		return i
	}
	//rollvet:allow hotalloc -- arena growth is amortized and bounded by peak queue depth; the AllocsPerRun gate measures the steady state
	k.slots = append(k.slots, event{})
	return int32(len(k.slots) - 1)
}

// release recycles a slot: bump gen (invalidating timer handles), drop
// references so the GC can reclaim callbacks and frames, and push the slot
// onto the free list.
func (k *Kernel) release(i int32) {
	s := &k.slots[i]
	s.gen++
	s.ns = nil
	s.fn = nil
	s.frame = nil
	s.pos = -1
	s.next = k.free
	k.free = i
}

// newEvent allocates a slot stamped with the clamped time and the next
// sequence number. The caller fills the payload and calls push.
func (k *Kernel) newEvent(at int64) int32 {
	if at < k.now {
		at = k.now
	}
	k.seq++
	i := k.alloc()
	s := &k.slots[i]
	s.at = at
	s.seq = k.seq
	return i
}

func (k *Kernel) less(a, b int32) bool {
	ea, eb := &k.slots[a], &k.slots[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (k *Kernel) heapSwap(i, j int) {
	k.heap[i], k.heap[j] = k.heap[j], k.heap[i]
	k.slots[k.heap[i]].pos = int32(i)
	k.slots[k.heap[j]].pos = int32(j)
}

func (k *Kernel) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(k.heap[i], k.heap[p]) {
			return
		}
		k.heapSwap(i, p)
		i = p
	}
}

func (k *Kernel) siftDown(i int) {
	n := len(k.heap)
	for {
		best := i
		first := 4*i + 1
		if first >= n {
			return
		}
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if k.less(k.heap[c], k.heap[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		k.heapSwap(i, best)
		i = best
	}
}

// push enqueues a filled slot.
func (k *Kernel) push(i int32) {
	k.slots[i].pos = int32(len(k.heap))
	//rollvet:allow hotalloc -- heap growth is amortized and bounded by peak queue depth; steady state reuses the backing array
	k.heap = append(k.heap, i)
	k.siftUp(len(k.heap) - 1)
}

// popTop removes the minimum slot index from the heap (the slot itself is
// released by the caller once its payload has been copied out).
func (k *Kernel) popTop() {
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.slots[k.heap[0]].pos = 0
	k.heap = k.heap[:last]
	if last > 0 {
		k.siftDown(0)
	}
}

// remove deletes the heap entry at position pos (timer cancellation).
func (k *Kernel) remove(pos int32) {
	last := len(k.heap) - 1
	if int(pos) != last {
		k.heap[pos] = k.heap[last]
		k.slots[k.heap[pos]].pos = pos
	}
	k.heap = k.heap[:last]
	if int(pos) < last {
		k.siftDown(int(pos))
		k.siftUp(int(pos))
	}
}

// ── Cancelled-deadline credits ─────────────────────────────────────────

// pushCredit records a cancelled event's deadline (binary min-heap by
// (at, seq)).
func (k *Kernel) pushCredit(c credit) {
	//rollvet:allow hotalloc -- credit-heap growth is amortized and bounded by the number of simultaneously cancelled timers
	k.cancelled = append(k.cancelled, c)
	i := len(k.cancelled) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !creditLess(k.cancelled[i], k.cancelled[p]) {
			break
		}
		k.cancelled[i], k.cancelled[p] = k.cancelled[p], k.cancelled[i]
		i = p
	}
}

func (k *Kernel) popCredit() {
	last := len(k.cancelled) - 1
	k.cancelled[0] = k.cancelled[last]
	k.cancelled = k.cancelled[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && creditLess(k.cancelled[l], k.cancelled[best]) {
			best = l
		}
		if r < last && creditLess(k.cancelled[r], k.cancelled[best]) {
			best = r
		}
		if best == i {
			return
		}
		k.cancelled[i], k.cancelled[best] = k.cancelled[best], k.cancelled[i]
		i = best
	}
}

func creditLess(a, b credit) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ── Scheduling ─────────────────────────────────────────────────────────

// schedule enqueues a generic callback; past times clamp to "now" (the
// only clamp point — At and the typed schedulers all funnel through
// newEvent).
//
//rollvet:hotpath
func (k *Kernel) schedule(at int64, fn func()) {
	i := k.newEvent(at)
	s := &k.slots[i]
	s.kind = evFunc
	s.fn = fn
	k.push(i)
}

// scheduleExec enqueues an epoch-guarded callback on ns (timer fires and
// storage completions) without allocating a wrapper closure.
//
//rollvet:hotpath
func (k *Kernel) scheduleExec(at int64, ns *nodeState, epoch uint64, fn func()) int32 {
	i := k.newEvent(at)
	s := &k.slots[i]
	s.kind = evExec
	s.ns = ns
	s.epoch = epoch
	s.fn = fn
	k.push(i)
	return i
}

// scheduleArrive enqueues a frame arrival (ns nil for unregistered
// destinations, preserved so the event count matches the send schedule).
//
//rollvet:hotpath
func (k *Kernel) scheduleArrive(at int64, ns *nodeState, frame []byte, sentAt int64) {
	i := k.newEvent(at)
	s := &k.slots[i]
	s.kind = evArrive
	s.ns = ns
	s.frame = frame
	s.sentAt = sentAt
	k.inflight++
	k.push(i)
}

// Run processes events until virtual time `until` (from simulation start);
// the clock then reads exactly `until`. It returns the number of events
// processed by this call.
func (k *Kernel) Run(until time.Duration) int64 {
	n, _ := k.RunContext(context.Background(), until)
	return n
}

// cancelCheckEvery is how many events the kernel processes between context
// checks. Cancellation is a wall-clock concern; checking it per batch keeps
// the virtual-time hot loop free of atomic loads while still bounding the
// latency of a Ctrl-C or deadline to a few thousand events.
const cancelCheckEvery = 4096

// RunContext is Run with cooperative cancellation: it stops early (without
// disturbing the event queue) when ctx is done and returns ctx's error.
// A cancelled run leaves the kernel in a consistent but incomplete state;
// resuming with a later RunContext call continues deterministically, so
// cancellation never changes the event sequence of the events that do run.
func (k *Kernel) RunContext(ctx context.Context, until time.Duration) (int64, error) {
	limit := int64(until)
	var processed int64
	for len(k.heap) > 0 {
		if processed%cancelCheckEvery == 0 {
			select {
			case <-ctx.Done():
				return processed, ctx.Err()
			default:
			}
		}
		top := k.heap[0]
		at, seq := k.slots[top].at, k.slots[top].seq
		// Credit cancelled deadlines that would have popped before this
		// event, keeping processed-event totals identical to a scheduler
		// that leaves cancelled timers queued until their deadline.
		for len(k.cancelled) > 0 && k.cancelled[0].at <= limit &&
			creditLess(k.cancelled[0], credit{at: at, seq: seq}) {
			k.popCredit()
			processed++
			k.countEvent()
		}
		if at > limit {
			break
		}
		e := k.slots[top] // copy out: dispatch may grow or recycle the arena
		k.popTop()
		k.release(top)
		if e.at > k.now {
			k.now = e.at
		}
		// Step boundary (see step.go): the probe observes the event about to
		// dispatch, and step-indexed crashes land here — after the slot is
		// off the heap (an injected crash schedules a restart event, which
		// must not displace the pending heap top) and before the dispatch,
		// so a crash at step i interleaves exactly between events i-1 and i.
		// dispatched is bumped before the dispatch so Steps() read from
		// inside a handler or tracer callback names the boundary immediately
		// after the event being dispatched.
		if k.stepFn != nil || len(k.stepCrash) > 0 {
			k.stepBoundary(&e)
		}
		k.dispatched++
		switch e.kind {
		case evFunc:
			e.fn()
		case evExec:
			e.ns.exec(e.epoch, e.fn)
		case evArrive:
			k.inflight--
			if e.ns != nil {
				k.frameArrived(e.ns, e.frame, e.sentAt)
			}
		case evWake:
			k.wake(e.ns, e.epoch)
		}
		processed++
		k.countEvent()
	}
	// Credit any cancelled deadlines inside the window beyond the last
	// queued event.
	for len(k.cancelled) > 0 && k.cancelled[0].at <= limit {
		k.popCredit()
		processed++
		k.countEvent()
	}
	if limit > k.now {
		k.now = limit
	}
	return processed, nil
}

func (k *Kernel) countEvent() {
	k.count++
	if k.count > k.cfg.MaxEvents {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v (runaway schedule?)",
			k.cfg.MaxEvents, time.Duration(k.now)))
	}
}

// Crash kills node id immediately: the process image, its timers, and its
// pending callbacks vanish; stable storage survives. A watchdog restart is
// scheduled automatically after WatchdogDetect + RestartDelay.
func (k *Kernel) Crash(id ids.ProcID) {
	ns := k.find(id)
	if ns == nil || !ns.up {
		return
	}
	if id.IsStorage() {
		panic("sim: the stable-storage pseudo-process never fails (paper §3.3)")
	}
	k.crashApplied++
	k.tracef("%v CRASH", id)
	k.tr.Instant(k.now, int32(id), trace.EvCrash, trace.Tag{})
	ns.downSpan = k.tr.Begin(k.now, int32(id), trace.EvDown, trace.Tag{})
	ns.up = false
	ns.epoch++
	ns.proc = nil
	ns.busyUntil = 0
	// The FIFO deferral queue is volatile process state; any armed wake
	// event is neutralized by the epoch bump.
	ns.defq = nil
	ns.defHead = 0
	ns.wakeArmed = false
	ns.met.BlockEnd(k.now) // a dead process is not "blocked"
	ns.met.Recoveries = append(ns.met.Recoveries, metrics.RecoveryTrace{CrashedAt: k.now})
	restartAt := k.now + int64(k.cfg.HW.WatchdogDetect) + int64(k.cfg.HW.RestartDelay)
	k.schedule(restartAt, func() { k.restart(ns) })
}

// CrashAt schedules a crash of id at virtual time d from start.
func (k *Kernel) CrashAt(d time.Duration, id ids.ProcID) {
	k.At(d, func() { k.Crash(id) })
}

func (k *Kernel) restart(ns *nodeState) {
	if ns.up {
		return
	}
	k.tracef("%v RESTART", ns.id)
	k.tr.End(ns.downSpan, k.now)
	ns.downSpan = 0
	k.tr.Instant(k.now, int32(ns.id), trace.EvRestart, trace.Tag{})
	ns.up = true
	ns.proc = ns.factory()
	if tr := ns.met.CurrentRecovery(); tr != nil && tr.RestartedAt == 0 {
		tr.RestartedAt = k.now
	}
	ns.proc.Boot(ns, true)
}

func (k *Kernel) tracef(format string, args ...any) {
	if k.cfg.Trace != nil {
		fmt.Fprintf(k.cfg.Trace, "[%12s] ", time.Duration(k.now))
		fmt.Fprintf(k.cfg.Trace, format, args...)
		fmt.Fprintln(k.cfg.Trace)
	}
}

// defItem is one entry of the FIFO busy-deferral queue: either a deferred
// frame delivery (frame set) or a deferred callback (fn set).
type defItem struct {
	epoch uint64
	fn    func()
	frame []byte
}

// nodeState implements node.Env for one node.
type nodeState struct {
	k         *Kernel
	id        ids.ProcID
	factory   node.Factory
	proc      node.Process
	up        bool
	epoch     uint64
	busyUntil int64
	stable    *storage.Store
	rng       *rand.Rand // created by Rand on first use
	met       *metrics.Proc
	downSpan  trace.SpanRef // open crash→restart span

	// FIFO busy-deferral queue; defHead indexes the next item so draining is
	// O(1) per item without reslicing the backing array away from reuse.
	defq      []defItem
	defHead   int
	wakeArmed bool
}

var _ node.Env = (*nodeState)(nil)

func (ns *nodeState) ID() ids.ProcID { return ns.id }

// N reports the application cluster size: the nodes of this kernel, unless
// the kernel is one shard of a larger cluster (see Sharded), in which case
// the coordinator's override reports the full size.
func (ns *nodeState) N() int {
	if ns.k.nOverride > 0 {
		return ns.k.nOverride
	}
	return ns.k.nApp
}
func (ns *nodeState) Now() int64             { return ns.k.now }
func (ns *nodeState) Metrics() *metrics.Proc { return ns.met }
func (ns *nodeState) Tracer() trace.Tracer   { return ns.k.tr }

// Rand returns the node's private stream, seeded from the run seed and the
// node id. No protocol draws from it today, so it is built on first use:
// seeding a math/rand source per node was a measurable share of a short run.
func (ns *nodeState) Rand() *rand.Rand {
	if ns.rng == nil {
		ns.rng = rand.New(rand.NewSource(ns.k.cfg.Seed ^ (int64(ns.id)+2)*0x9E3779B97F4A7C))
	}
	return ns.rng
}

func (ns *nodeState) Logf(format string, args ...any) {
	if ns.k.cfg.Trace != nil {
		ns.k.tracef("%v: %s", ns.id, fmt.Sprintf(format, args...))
	}
}

// Busy charges CPU time: deliveries and timers that arrive while the
// process is busy are deferred until it is free.
func (ns *nodeState) Busy(d time.Duration) {
	start := ns.k.now
	if ns.busyUntil > start {
		start = ns.busyUntil
	}
	ns.busyUntil = start + int64(d)
}

func (ns *nodeState) Send(to ids.ProcID, e *wire.Envelope) {
	if !ns.up {
		return
	}
	e.From = ns.id
	ns.sendFrame(to, e.Kind, wire.Encode(e))
}

// Multicast encodes e once and multicasts the frame.
func (ns *nodeState) Multicast(dests []ids.ProcID, e *wire.Envelope) {
	if !ns.up || len(dests) == 0 {
		return
	}
	e.From = ns.id
	ns.MulticastFrame(dests, e.Kind, wire.Encode(e))
}

// MulticastFrame hands every destination the one frame, which nothing writes
// after this point.
func (ns *nodeState) MulticastFrame(dests []ids.ProcID, kind wire.Kind, frame []byte) {
	if !ns.up {
		return
	}
	for _, to := range dests {
		ns.sendFrame(to, kind, frame)
	}
}

// sendFrame is the per-destination half of a send: CPU charge, counters,
// trace instant, link schedule, and the arrival event (or outbox entry).
func (ns *nodeState) sendFrame(to ids.ProcID, kind wire.Kind, frame []byte) {
	if to == ns.id {
		panic(fmt.Sprintf("sim: %v sent to itself", ns.id))
	}
	ns.Busy(ns.k.cfg.HW.SendCost(len(frame)))
	ns.met.Sent(uint8(kind), len(frame))
	ns.k.tr.Instant(ns.k.now, int32(ns.id), trace.EvSend,
		trace.Tag{Kind: uint8(kind), Arg: int64(len(frame))})
	at, ok := ns.k.net.Schedule(ns.k.now, ns.id, to, len(frame))
	if !ok {
		return
	}
	k := ns.k
	if k.arrivalSink != nil {
		// Sharded mode: every arrival — same-shard ones included, so the
		// destination's arrival sequence numbers are independent of the
		// partitioning — is buffered and injected at the window boundary.
		k.arrivalSink(at, ns.id, to, frame, k.now)
		return
	}
	k.scheduleArrive(at, k.find(to), frame, k.now)
}

// frameArrived is the network-side arrival of an encoded frame sent at
// virtual time sentAt.
func (k *Kernel) frameArrived(ns *nodeState, frame []byte, sentAt int64) {
	if !ns.up {
		ns.met.Dropped++
		return
	}
	ns.met.DeliveryHist.Record(time.Duration(k.now - sentAt))
	k.deliver(ns, frame, ns.epoch)
}

// deliver decodes and delivers a frame on the process's current epoch, or
// queues it behind the receiver's other deferred work while it is busy — the
// same semantics exec gives callbacks.
func (k *Kernel) deliver(ns *nodeState, frame []byte, epoch uint64) {
	if ns.epoch != epoch || !ns.up {
		return
	}
	if ns.busyUntil > k.now {
		ns.deferItem(defItem{epoch: epoch, frame: frame})
		return
	}
	e := &k.rx
	if err := k.dec.Decode(e, frame); err != nil {
		panic(fmt.Sprintf("sim: undecodable frame for %v: %v", ns.id, err))
	}
	ns.Busy(k.cfg.HW.RecvCost(len(frame)))
	ns.met.Received(uint8(e.Kind), len(frame))
	if k.cfg.Trace != nil { // tested here: the call would box three arguments per frame
		k.tracef("%v <- %v %v", ns.id, e.From, e.Kind)
	}
	k.tr.Instant(k.now, int32(ns.id), trace.EvRecv,
		trace.Tag{Kind: uint8(e.Kind), Arg: int64(len(frame))})
	ns.proc.Deliver(e)
}

// exec runs fn when the process is free, dropping it if the process
// instance it belongs to has since crashed.
//
//rollvet:hotpath
func (ns *nodeState) exec(epoch uint64, fn func()) {
	if ns.epoch != epoch || !ns.up {
		return
	}
	if ns.busyUntil > ns.k.now {
		ns.deferItem(defItem{epoch: epoch, fn: fn})
		return
	}
	fn()
}

// deferItem appends to the FIFO deferral queue and makes sure a wake event
// is pending at the time the node becomes free.
func (ns *nodeState) deferItem(it defItem) {
	//rollvet:allow hotalloc -- queue growth is amortized and bounded by the peak deferred backlog; the drained queue's backing array is reused
	ns.defq = append(ns.defq, it)
	ns.armWake()
}

// armWake schedules the next FIFO drain at busyUntil, at most one pending
// wake per node.
func (ns *nodeState) armWake() {
	if ns.wakeArmed {
		return
	}
	ns.wakeArmed = true
	k := ns.k
	i := k.newEvent(ns.busyUntil)
	s := &k.slots[i]
	s.kind = evWake
	s.ns = ns
	s.epoch = ns.epoch
	k.push(i)
}

// wake drains exactly one FIFO-deferred item: processing it makes the node
// busy again, so the queue re-arms for the new busyUntil rather than
// burning through the backlog at one virtual instant. One item per event
// keeps deferral linear in the backlog; re-pushing every deferred item into
// the heap at busyUntil would be quadratic.
func (k *Kernel) wake(ns *nodeState, epoch uint64) {
	if ns.epoch != epoch || !ns.up {
		return
	}
	ns.wakeArmed = false
	if ns.defHead >= len(ns.defq) {
		ns.defq = ns.defq[:0]
		ns.defHead = 0
		return
	}
	if ns.busyUntil > k.now {
		// Something else (a direct exec at an earlier seq, say) consumed CPU
		// since this wake was armed; try again when the node is free.
		ns.armWake()
		return
	}
	it := ns.defq[ns.defHead]
	ns.defq[ns.defHead] = defItem{} // release the frame/closure for the GC
	ns.defHead++
	if ns.defHead == len(ns.defq) {
		ns.defq = ns.defq[:0]
		ns.defHead = 0
	}
	if it.fn != nil {
		ns.exec(it.epoch, it.fn)
	} else {
		k.deliver(ns, it.frame, it.epoch)
	}
	if len(ns.defq) > ns.defHead {
		ns.armWake()
	}
}

// CancelTimer is node.Timer.Stop for the timer queued in slot under gen (gen
// detects slot reuse: once the timer fires or is stopped, the slot's
// generation moves on and its handles become inert). The event is removed
// from the heap and its slot recycled immediately (stopped timers hold no
// queue space), while the deadline is credited to the processed-event totals
// so event accounting matches a scheduler without cancellation.
//
//rollvet:hotpath
func (k *Kernel) CancelTimer(slot int32, gen uint64) {
	s := &k.slots[slot]
	if s.gen != gen {
		return // already fired, stopped, or slot recycled
	}
	// Copy the slot coordinates out before touching the kernel: pushCredit
	// precedes the heap removal, and a pointer into the arena must not be
	// trusted across any call that can recycle or grow it.
	at, seq, pos := s.at, s.seq, s.pos
	k.pushCredit(credit{at: at, seq: seq})
	k.remove(pos)
	k.release(slot)
}

func (ns *nodeState) After(d time.Duration, fn func()) node.Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: %v: After(%v): negative timer duration", ns.id, d))
	}
	k := ns.k
	i := k.scheduleExec(k.now+int64(d), ns, ns.epoch, fn)
	return node.NewTimer(k, i, k.slots[i].gen)
}

func (ns *nodeState) ReadStable(key string, cb func(img storage.Image, ok bool)) {
	img, ok := ns.stable.Get(key)
	dur := ns.k.cfg.HW.Disk.ReadTime(img.Size())
	ns.met.StorageOp(false, img.Size(), dur)
	ns.k.tr.Span(ns.k.now, int64(dur), int32(ns.id), trace.EvStorageRead,
		trace.Tag{Arg: int64(img.Size())})
	ns.k.scheduleExec(ns.k.now+int64(dur), ns, ns.epoch, func() { cb(img, ok) })
}

// WriteStable hands img itself to the store on completion (node.Env).
func (ns *nodeState) WriteStable(key string, img storage.Image, cb func()) {
	dur := ns.k.cfg.HW.Disk.WriteTime(img.Size())
	ns.met.StorageOp(true, img.Size(), dur)
	ns.k.tr.Span(ns.k.now, int64(dur), int32(ns.id), trace.EvStorageWrite,
		trace.Tag{Arg: int64(img.Size())})
	epoch := ns.epoch
	ns.k.schedule(ns.k.now+int64(dur), func() {
		// Durability happens at completion: a crash while the write is in
		// flight loses it, like a disk without a committed block.
		if ns.epoch != epoch {
			return
		}
		ns.stable.Put(key, img)
		ns.exec(epoch, func() {
			if cb != nil {
				cb()
			}
		})
	})
}
