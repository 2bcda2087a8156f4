// Package sim is a deterministic discrete-event simulator that executes
// node.Process instances in virtual time.
//
// Every run with the same configuration and seed produces the identical
// event sequence, which is what makes the failure-injection experiments and
// the golden-run consistency checks possible. The runtime is a Sharded
// coordinator (shard.go) over one or more Kernels; New is the one-shard
// runtime. A Kernel is always one shard: it owns the clock, the event queue,
// and the per-node state of its nodes (the links a node sends on and its
// stable storage survive crashes; the process image does not).
//
// The scheduler is built for throughput: events live in a flat slot arena
// ([]event) recycled through a free list, ordered by an index-based 4-ary
// min-heap, so the schedule/deliver hot path is allocation-free in steady
// state (no per-event heap allocation, no interface boxing — see
// bench_test.go for the container/heap baseline it replaced). The hottest
// event kinds (network arrival, timer fire, deferral-queue wake, stable-write
// completion) are encoded as typed slot fields instead of closures. Timers support real
// cancellation: Stop removes the event from the heap and recycles its slot
// immediately. A stopped timer is not an event: Run counts what it
// dispatched, nothing else.
package sim

import (
	"fmt"
	"math/bits"
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
	// Tracer, if non-nil, records structured events and spans (crash /
	// restart, frame traffic, storage accesses) for timeline export. Nil
	// disables tracing at no measurable cost.
	Tracer trace.Tracer
	// Ignored: FIFO busy deferral is the only discipline (see deferItem). The
	// field survives because the frozen benchmark/ module sets it.
	FIFODefer bool
}

// maxEvents bounds the events one kernel dispatches, as a runaway guard. A
// variable only so that a test can lower it (export_test.go).
var maxEvents int64 = 200_000_000

// Event kinds. evFunc is the generic closure event (harness callbacks,
// crash restarts, stable reads); the message hot path and stable writes use
// typed kinds so scheduling a delivery or a write's completion allocates
// nothing.
const (
	// evFunc runs fn.
	evFunc uint8 = iota
	// evExec runs ns.exec(epoch, fn): timer fires and read completions.
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
	// evWritten completes a stable write (see writeOp). The step probe
	// reports it as evFunc (see event.reported).
	evWritten
)

// event is one scheduled callback slot, ordered by its key (at, phase, tie)
// (see less). Slots are pooled: while queued, pos is the index in Kernel.heap; while
// free, nextFree links the free list and gen has been bumped so stale
// timer handles can detect reuse. Pointers into the arena go stale the
// moment a slot is released or the backing array grows — copy the slot out
// by value (as run does) before any call that can touch the arena.
//
//rollvet:pooled
type event struct {
	at     int64
	phase  uint64 // coordinator phase<<1, | 1 for an arrival (see less)
	seq    uint64 // kernel sequence number; an arrival's sender send count
	gen    uint64 // bumped on release; validates node.Timer handles
	epoch  uint64 // owning process incarnation (evExec, evWake, evWritten); an arrival's (to, from)
	ns     *nodeState
	fn     func()
	frame  []byte // an arrival's frame: Data here, its Pad in aux
	sentAt int64  // virtual send time (evArrive)
	pos    int32  // heap index while queued
	next   int32  // free-list link while free
	aux    int32  // an arrival's frame Pad; a write completion's record (nodeState.writes)
	kind   uint8
	owned  bool // the frame's buffer returns to its sender's free list (see frames)
}

// Kernel is one shard of a Sharded runtime: the event heap and the nodes the
// coordinator assigned to it. It is not safe for concurrent use; the
// coordinator runs it from one goroutine at a time.
type Kernel struct {
	cfg      Config
	tr       trace.Tracer
	now      int64
	seq      uint64
	slots    []event      // event arena; index = slot id
	heap     []int32      // 4-ary min-heap of slot ids ordered by (at, phase, tie)
	free     int32        // free-list head into slots, -1 when empty
	nodes    []*nodeState // index id+1 (ids.StorageProc is -1); see find
	order    []ids.ProcID // insertion order, for deterministic boot
	spare    []*nodeState // the nodes of the run before the last reset
	inflight int          // frames scheduled to arrive but not yet popped
	// rx is the one envelope every frame is decoded into, through the one
	// decoder that holds its DetList; a handler returns (having kept what
	// it needs, wire.Envelope.Keep) before the next decode.
	rx  wire.Envelope
	dec wire.Decoder
	// frames[c] is the free list of frame buffers of minFrameBuf<<c bytes
	// a unicast Send encodes into. Such a frame is the kernel's until its
	// arrival is consumed (see releaseFrame); away holds the buffers this
	// shard took back for another shard's lists until the flush returns them.
	frames [frameClasses][][]byte
	away   []awayFrame

	// The coordinator (shard.go). phase counts its flushes and stamps every
	// event created in it. A frame to a node of another shard waits in out
	// for the next flush; one to a node of this shard is pushed at once, and
	// early counts those pushed since the last flush (see
	// Sharded.QueueDepth).
	coord *Sharded
	phase uint64
	out   []outMsg
	early int

	// Step-boundary hook (see step.go). dispatched counts events dispatched
	// so far — the one event count: run returns its growth, maxEvents bounds
	// it — and the boundary before dispatch i is step index i. Like the
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

// find returns the state of id, or nil for an id never registered on this
// shard. Every frame resolves its destination here, so the table is a
// slice, not a map.
func (k *Kernel) find(id ids.ProcID) *nodeState {
	if i := int(id) + 1; i >= 0 && i < len(k.nodes) {
		return k.nodes[i]
	}
	return nil
}

// reset is Sharded.Reset for one kernel: every slot is free and zeroed, the
// registered nodes become spares, and the buffers are kept. A frame still in
// flight, deferred or outboxed is left to the collector.
func (k *Kernel) reset(cfg Config) {
	for _, ns := range k.nodes {
		if ns != nil {
			k.spare = append(k.spare, ns)
		}
	}
	clear(k.slots)
	clear(k.nodes)
	clear(k.out)
	clear(k.away)
	clear(k.stepCrash)
	*k = Kernel{
		cfg: cfg, tr: trace.OrNop(cfg.Tracer), free: -1, coord: k.coord,
		slots: k.slots[:0], heap: k.heap[:0], nodes: k.nodes[:0], order: k.order[:0], spare: k.spare,
		dec: k.dec, frames: k.frames, out: k.out[:0], away: k.away[:0], stepCrash: k.stepCrash,
	}
}

// addNode registers a process slot (Sharded.AddSlot) on a spare node state,
// or a new one.
func (k *Kernel) addNode(id ids.ProcID, renew node.Renew) {
	i := int(id) + 1
	if i < 0 {
		panic(fmt.Sprintf("sim: AddNode(%v): not a process id", id))
	}
	if k.find(id) != nil {
		panic(fmt.Sprintf("sim: duplicate node %v", id))
	}
	var ns *nodeState
	if n := len(k.spare); n > 0 {
		ns, k.spare = k.spare[n-1], k.spare[:n-1]
	} else {
		ns = &nodeState{stable: storage.NewStore(), met: metrics.NewProc()}
	}
	ns.reset(k, id, renew)
	if i >= len(k.nodes) {
		k.nodes = append(k.nodes, make([]*nodeState, i+1-len(k.nodes))...)
	}
	k.nodes[i] = ns
	k.order = append(k.order, id)
}

// boot starts every registered node with restart = false, in registration
// order.
func (k *Kernel) boot() {
	for _, id := range k.order {
		ns := k.find(id)
		ns.up = true
		ns.proc = ns.renew(ns.proc)
		ns.proc.Boot(ns, false)
	}
}

// peekNextAt reports the virtual time of the earliest queued event, if any.
// The sharded coordinator uses it to fast-forward over empty windows.
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

// ── Slot arena and 4-ary heap ──────────────────────────────────────────
//
// The heap orders slot indices by the key (at, phase, tie); the key is
// unique, so the order is total and pop order is independent of heap arity
// or layout — the property the golden trace-hash test pins.

// alloc returns a free slot index, growing the arena only when the free
// list is empty.
func (k *Kernel) alloc() int32 {
	if i := k.free; i >= 0 {
		k.free = k.slots[i].next
		return i
	}
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
	s.phase = k.phase << 1
	s.seq = k.seq
	return i
}

// less orders by (at, phase, tie). An ordinary event ties by seq. An arrival
// (shard.go) carries the phase it was sent in with the low bit set,
// so it sorts after that phase's ordinary events and before the next phase,
// and ties by (to, from, the sender's send count): no part of its key
// depends on which shard sent it or when the frame was pushed.
func (k *Kernel) less(a, b int32) bool {
	ea, eb := &k.slots[a], &k.slots[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	if ea.phase != eb.phase {
		return ea.phase < eb.phase
	}
	if ea.phase&1 != 0 && ea.epoch != eb.epoch {
		return ea.epoch < eb.epoch
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

// ── Scheduling ─────────────────────────────────────────────────────────

// schedule enqueues a generic callback; past times clamp to "now" (the
// only clamp point — the typed schedulers all funnel through newEvent).
func (k *Kernel) schedule(at int64, fn func()) {
	i := k.newEvent(at)
	s := &k.slots[i]
	s.kind = evFunc
	s.fn = fn
	k.push(i)
}

// scheduleExec enqueues an epoch-guarded callback on ns (a timer fire or a
// read completion) without allocating a wrapper closure.
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

// arrive enqueues the arrival of m (ns nil for unregistered destinations,
// preserved so the event count matches the send schedule) under the arrival
// key of the coordinator phase it was sent in (see less). ProcIDs are signed:
// flipping the sign bit makes the unsigned (to, from) pair sort as the signed
// ids do, ids.StorageProc first.
func (k *Kernel) arrive(m *outMsg, phase uint64) {
	ns := k.find(m.to)
	i := k.newEvent(m.at)
	s := &k.slots[i]
	s.kind = evArrive
	s.ns = ns
	s.frame, s.aux, s.owned = m.frame.Data, int32(m.frame.Pad), m.home != nil
	s.sentAt = m.sentAt
	s.phase = phase<<1 | 1
	s.epoch = uint64(uint32(m.to)^1<<31)<<32 | uint64(uint32(m.from)^1<<31)
	s.seq = m.count
	k.inflight++
	k.push(i)
}

// run dispatches events until virtual time limit (inclusive); the clock then
// reads exactly limit. It returns the number of events dispatched. The
// coordinator calls it once per window and shard.
func (k *Kernel) run(limit int64) int64 {
	start := k.dispatched
	for len(k.heap) > 0 {
		top := k.heap[0]
		if k.slots[top].at > limit {
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
		if k.dispatched > maxEvents {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v (runaway schedule?)",
				maxEvents, time.Duration(k.now)))
		}
		switch e.kind {
		case evFunc:
			e.fn()
		case evExec:
			e.ns.exec(e.epoch, e.fn)
		case evArrive:
			k.inflight--
			var home *Kernel
			if e.owned {
				home = k.homeOf(ids.ProcID(int32(uint32(e.epoch) ^ 1<<31))) // the sender (see arrive)
			}
			if e.ns != nil {
				k.frameArrived(e.ns, storage.Image{Data: e.frame, Pad: int(e.aux)}, home, e.sentAt)
			} else {
				k.releaseFrame(home, e.frame)
			}
		case evWake:
			k.wake(e.ns, e.epoch)
		case evWritten:
			e.ns.written(e.epoch, e.aux)
		}
	}
	if limit > k.now {
		k.now = limit
	}
	return k.dispatched - start
}

// crash kills node id immediately: the process image, its timers, and its
// pending callbacks vanish; stable storage survives. A watchdog restart is
// scheduled automatically after WatchdogDetect + RestartDelay.
func (k *Kernel) crash(id ids.ProcID) {
	ns := k.find(id)
	if ns == nil || !ns.up {
		return
	}
	if id.IsStorage() {
		panic("sim: the stable-storage pseudo-process never fails (paper §3.3)")
	}
	k.crashApplied++
	k.tr.Instant(k.now, int32(id), trace.EvCrash, trace.Tag{})
	ns.downSpan = k.tr.Begin(k.now, int32(id), trace.EvDown, trace.Tag{})
	ns.up = false
	ns.epoch++
	ns.busyUntil = 0
	// The FIFO deferral queue is volatile process state; any armed wake
	// event is neutralized by the epoch bump. Its array is kept.
	clear(ns.defq)
	ns.defq = ns.defq[:0]
	ns.defHead = 0
	ns.wakeArmed = false
	ns.met.BlockEnd(k.now) // a dead process is not "blocked"
	ns.met.Recoveries = append(ns.met.Recoveries, metrics.RecoveryTrace{CrashedAt: k.now})
	restartAt := k.now + int64(k.cfg.HW.WatchdogDetect) + int64(k.cfg.HW.RestartDelay)
	k.schedule(restartAt, func() { k.restart(ns) })
}

func (k *Kernel) restart(ns *nodeState) {
	if ns.up {
		return
	}
	k.tr.End(ns.downSpan, k.now)
	ns.downSpan = 0
	k.tr.Instant(k.now, int32(ns.id), trace.EvRestart, trace.Tag{})
	ns.up = true
	ns.proc = ns.renew(ns.proc)
	if tr := ns.met.CurrentRecovery(); tr != nil && tr.RestartedAt == 0 {
		tr.RestartedAt = k.now
	}
	ns.proc.Boot(ns, true)
}

// defItem is one entry of the FIFO busy-deferral queue: either a deferred
// frame delivery (frame set, with its buffer's home) or a deferred callback
// (fn set). A crash drops the queue, and the collector takes its frames.
type defItem struct {
	epoch uint64
	fn    func()
	frame storage.Image
	home  *Kernel
}

// nodeState implements node.Env for one node.
type nodeState struct {
	k         *Kernel
	id        ids.ProcID
	renew     node.Renew
	proc      node.Process // kept while down and across resets
	up        bool
	epoch     uint64
	busyUntil int64
	stable    *storage.Store
	met       *metrics.Proc
	downSpan  trace.SpanRef // open crash→restart span

	// links[to+1] is the link this node sends to `to` on (see link): grown
	// to the highest destination sent to, one index operation per frame.
	// sent counts the frames it put on them, the last part of an arrival's
	// key.
	links []netmodel.Link
	sent  uint64

	// FIFO busy-deferral queue; defHead indexes the next item so draining is
	// O(1) per item without reslicing the backing array away from reuse.
	defq      []defItem
	defHead   int
	wakeArmed bool

	// writes holds the stable writes in flight, which their completion
	// events name by index; writeFree lists the free records.
	writes    []writeOp
	writeFree []int32
}

var _ node.Env = (*nodeState)(nil)

// reset makes ns the state of node id, hosted by renew on k, before boot,
// keeping its arenas: the links table (every link as new), the deferral
// queue, the write records, the stable store's map, the metrics' buckets and
// the process.
func (ns *nodeState) reset(k *Kernel, id ids.ProcID, renew node.Renew) {
	clear(ns.links)
	clear(ns.defq)
	clear(ns.writes)
	*ns = nodeState{
		k: k, id: id, renew: renew, proc: ns.proc, stable: ns.stable, met: ns.met,
		links: ns.links, defq: ns.defq[:0], writes: ns.writes[:0], writeFree: ns.writeFree[:0],
	}
	ns.stable.Reset()
	ns.met.Reset()
}

func (ns *nodeState) ID() ids.ProcID { return ns.id }

// N reports the application cluster size: the nodes of every shard.
func (ns *nodeState) N() int                 { return ns.k.coord.nApp }
func (ns *nodeState) Now() int64             { return ns.k.now }
func (ns *nodeState) Metrics() *metrics.Proc { return ns.met }
func (ns *nodeState) Tracer() trace.Tracer   { return ns.k.tr }

// Busy charges CPU time: deliveries and timers that arrive while the
// process is busy are deferred until it is free.
func (ns *nodeState) Busy(d time.Duration) {
	start := ns.k.now
	if ns.busyUntil > start {
		start = ns.busyUntil
	}
	ns.busyUntil = start + int64(d)
}

// Send encodes e into a buffer from the kernel's free list of its size
// class (frameBuf): the frame is the kernel's until its arrival is consumed.
func (ns *nodeState) Send(to ids.ProcID, e *wire.Envelope) {
	if !ns.up {
		return
	}
	e.From = ns.id
	buf, home := ns.k.frameBuf(wire.Size(e) - int(e.Pad))
	ns.sendFrame(to, e.Kind, encoded(wire.EncodeInto(buf, e)), home)
}

// Multicast encodes e once and multicasts the frame.
func (ns *nodeState) Multicast(dests []ids.ProcID, e *wire.Envelope) {
	if !ns.up || len(dests) == 0 {
		return
	}
	e.From = ns.id
	ns.MulticastFrame(dests, e.Kind, encoded(wire.EncodeChecked(e)))
}

// encoded is the frame of an envelope the simulator built, which is
// encodable by construction: an error is an invariant violation.
func encoded(frame storage.Image, err error) storage.Image {
	if err != nil {
		panic(fmt.Sprintf("sim: unencodable envelope: %v", err))
	}
	return frame
}

// MulticastFrame hands every destination the one frame, which nothing writes
// after this point and the collector reclaims.
func (ns *nodeState) MulticastFrame(dests []ids.ProcID, kind wire.Kind, frame storage.Image) {
	if !ns.up {
		return
	}
	for _, to := range dests {
		ns.sendFrame(to, kind, frame, nil)
	}
}

// sendFrame is the per-destination half of a send: CPU charge, counters,
// trace instant, link schedule, and the arrival event (or outbox entry). The
// arrival's key says when it was sent, not when it is enqueued, so it goes
// onto its own shard's heap now; a frame for another shard waits in the
// outbox for the next flush. Every cost is the frame's logical size, its
// padding included. home is the kernel whose free list the buffer returns
// to, nil for a frame the collector owns.
func (ns *nodeState) sendFrame(to ids.ProcID, kind wire.Kind, frame storage.Image, home *Kernel) {
	if to == ns.id {
		panic(fmt.Sprintf("sim: %v sent to itself", ns.id))
	}
	size := frame.Size()
	ns.Busy(ns.k.cfg.HW.SendCost(size))
	ns.met.Sent(uint8(kind), size)
	ns.k.tr.Instant(ns.k.now, int32(ns.id), trace.EvSend,
		trace.Tag{Kind: uint8(kind), Arg: int64(size)})
	k := ns.k
	at, ok := ns.link(to).Schedule(k.cfg.HW.Net, k.cfg.Seed, ns.id, to, k.now, size)
	if !ok {
		ns.met.Lost++
		k.releaseFrame(home, frame.Data)
		return
	}
	ns.sent++
	m := outMsg{at: at, sentAt: k.now, count: ns.sent, from: ns.id, to: to, frame: frame, home: home}
	if len(k.coord.shards) > 1 && k.coord.shardFor(to) != k {
		k.out = append(k.out, m)
		return
	}
	k.early++
	k.arrive(&m, k.phase)
}

// link returns the state of ns's link to `to`, growing the table on first use.
func (ns *nodeState) link(to ids.ProcID) *netmodel.Link {
	i := int(to) + 1
	if i >= len(ns.links) {
		ns.links = append(ns.links, make([]netmodel.Link, i+1-len(ns.links))...)
	}
	return &ns.links[i]
}

// frameArrived is the network-side arrival of an encoded frame sent at
// virtual time sentAt.
func (k *Kernel) frameArrived(ns *nodeState, frame storage.Image, home *Kernel, sentAt int64) {
	if !ns.up {
		ns.met.Dropped++
		k.releaseFrame(home, frame.Data)
		return
	}
	ns.met.DeliveryHist.Record(time.Duration(k.now - sentAt))
	k.deliver(ns, frame, home, ns.epoch)
}

// deliver decodes and delivers a frame on the process's current epoch, or
// queues it behind the receiver's other deferred work while it is busy — the
// same semantics exec gives callbacks. Either way the arrival is consumed
// here, buffer and all, unless it was queued.
func (k *Kernel) deliver(ns *nodeState, frame storage.Image, home *Kernel, epoch uint64) {
	if ns.epoch != epoch || !ns.up {
		k.releaseFrame(home, frame.Data)
		return
	}
	if ns.busyUntil > k.now {
		ns.deferItem(defItem{epoch: epoch, frame: frame, home: home})
		return
	}
	e := &k.rx
	if err := k.dec.Decode(e, frame); err != nil {
		panic(fmt.Sprintf("sim: undecodable frame for %v: %v", ns.id, err))
	}
	size := frame.Size()
	ns.Busy(k.cfg.HW.SendCost(size))
	ns.met.Received(uint8(e.Kind), size)
	k.tr.Instant(k.now, int32(ns.id), trace.EvRecv,
		trace.Tag{Kind: uint8(e.Kind), Arg: int64(size)})
	ns.proc.Deliver(e)
	k.releaseFrame(home, frame.Data)
}

// Frame buffers come in frameClasses sizes, minFrameBuf << c for class c,
// up to maxFrameBuf, 16 KiB: a frame above it — a depinfo reply of a large
// log — is left to the collector, so no rare large frame pins its size in a
// free list (DESIGN §5 has the measured frame sizes behind the value).
const (
	frameClasses = 9
	minFrameBuf  = 64
	maxFrameBuf  = minFrameBuf << (frameClasses - 1)
)

// frameBuf returns a buffer for an n-byte frame and the kernel whose free
// list it returns to: this one, or nil for a buffer of exactly n bytes above
// maxFrameBuf, which the collector owns.
func (k *Kernel) frameBuf(n int) ([]byte, *Kernel) {
	if n > maxFrameBuf {
		return make([]byte, 0, n), nil
	}
	c := frameClass(n)
	free := k.frames[c]
	if len(free) == 0 {
		return make([]byte, 0, minFrameBuf<<c), k
	}
	k.frames[c] = free[:len(free)-1]
	return free[len(free)-1], k
}

// frameClass is the smallest class whose buffers hold n bytes.
func frameClass(n int) int { return max(bits.Len(uint(n-1))-bits.Len(minFrameBuf-1), 0) }

// homeOf returns the kernel whose free lists a frame sent by `from` came
// from: the sender's shard's.
func (k *Kernel) homeOf(from ids.ProcID) *Kernel {
	if len(k.coord.shards) == 1 {
		return k
	}
	return k.coord.shardFor(from)
}

// awayFrame is a buffer taken back on one shard for another's free lists.
type awayFrame struct {
	home *Kernel
	buf  []byte
}

// releaseFrame takes back the buffer of a frame whose arrival is consumed:
// onto this kernel's free list when it is the buffer's home, into away for
// the flush when another shard's is. A nil home is a frame the collector
// owns: shared by a multicast, encoded once and sent again, or too large.
func (k *Kernel) releaseFrame(home *Kernel, data []byte) {
	switch {
	case home == nil:
	case TestingPoisonFrames:
		data = data[:cap(data)]
		for i := range data {
			data[i] = poisonByte
		}
	case home == k:
		k.keepFrame(data)
	default:
		k.away = append(k.away, awayFrame{home, data})
	}
}

// keepFrame puts a buffer of this kernel's back on the free list of its class.
func (k *Kernel) keepFrame(buf []byte) {
	c := frameClass(cap(buf))
	k.frames[c] = append(k.frames[c], buf[:0])
}

// exec runs fn when the process is free, dropping it if the process
// instance it belongs to has since crashed.
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
		k.deliver(ns, it.frame, it.home, it.epoch)
	}
	if len(ns.defq) > ns.defHead {
		ns.armWake()
	}
}

// CancelTimer is node.Timer.Stop for the timer queued in slot under gen (gen
// detects slot reuse: once the timer fires or is stopped, the slot's
// generation moves on and its handles become inert). The event is removed
// from the heap and its slot recycled immediately: a stopped timer holds no
// queue space and is never dispatched, so it is not an event.
func (k *Kernel) CancelTimer(slot int32, gen uint64) {
	s := &k.slots[slot]
	if s.gen != gen {
		return // already fired, stopped, or slot recycled
	}
	k.remove(s.pos)
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

// writeOp is one stable write in flight: what its completion needs, kept in
// its node's records (nodeState.writes) so that issuing the write makes no
// closure. Its image goes to the store under key, then cb runs.
type writeOp struct {
	key string
	img storage.Image
	cb  func()
}

// noop is the callback of a write issued without one: the completion still
// goes through exec, so it is deferred and woken as any callback is.
func noop() {}

// written completes write record r, issued under epoch, and frees it: the
// write is durable only now, so a crash while it was in flight loses it, like
// a disk without a committed block.
func (ns *nodeState) written(epoch uint64, r int32) {
	op := ns.writes[r]
	ns.writes[r] = writeOp{}
	ns.writeFree = append(ns.writeFree, r)
	if ns.epoch != epoch {
		return
	}
	ns.stable.Put(op.key, op.img)
	if op.cb == nil {
		op.cb = noop
	}
	ns.exec(epoch, op.cb)
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
	op := writeOp{key: key, img: img, cb: cb}
	var r int32
	if n := len(ns.writeFree); n > 0 {
		r, ns.writeFree = ns.writeFree[n-1], ns.writeFree[:n-1]
		ns.writes[r] = op
	} else {
		r = int32(len(ns.writes))
		ns.writes = append(ns.writes, op)
	}
	k := ns.k
	i := k.newEvent(k.now + int64(dur))
	s := &k.slots[i]
	s.kind = evWritten
	s.ns = ns
	s.epoch = ns.epoch
	s.aux = r
	k.push(i)
}
