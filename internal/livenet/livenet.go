// Package livenet runs the same node.Process protocol code the simulator
// runs, but on real goroutines with real time: one lock-serialized process
// per node, channels-of-control via time.AfterFunc deliveries, and
// per-link FIFO preserved. The examples use it to demonstrate the library
// as an actual concurrent system; the experiments use the simulator for
// determinism.
package livenet

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/storage"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
)

// Config parameterizes the runtime.
type Config struct {
	// HW is the hardware cost model: network latency/bandwidth and storage
	// latency are honored in (scaled) real time. CPU costs are modeled by
	// sleeping while holding the process lock.
	HW node.Hardware
	// TimeScale maps virtual time to wall time: 0.1 runs ten times faster
	// than the model. Zero means 1.0.
	TimeScale float64
	// Seed drives per-node randomness.
	Seed int64
	// Trace, if non-nil, receives event lines (synchronized).
	Trace io.Writer
	// Tracer, if non-nil, records structured events and spans; it must be
	// safe for concurrent use (trace.Recorder is). Nil disables tracing.
	Tracer trace.Tracer
}

// Net is a running cluster of goroutine-backed nodes. Create with New, add
// nodes, Boot, and Close when done.
type Net struct {
	cfg   Config
	tr    trace.Tracer
	start time.Time

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
	nodes  map[ids.ProcID]*lnode
	nApp   int
	links  map[[2]ids.ProcID]time.Time // per-link FIFO frontier
	traceM sync.Mutex
}

// New returns an empty runtime.
func New(cfg Config) *Net {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	return &Net{
		cfg:   cfg,
		tr:    trace.OrNop(cfg.Tracer),
		start: time.Now(),
		nodes: make(map[ids.ProcID]*lnode),
		links: make(map[[2]ids.ProcID]time.Time),
	}
}

// scale converts a virtual duration to wall time.
func (n *Net) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * n.cfg.TimeScale)
}

// vnow returns virtual nanoseconds since start.
func (n *Net) vnow() int64 {
	return int64(float64(time.Since(n.start)) / n.cfg.TimeScale)
}

// enter registers an in-flight callback; it returns false after Close.
func (n *Net) enter() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.wg.Add(1)
	return true
}

func (n *Net) exit() { n.wg.Done() }

// AddNode registers a node slot (before Boot).
func (n *Net) AddNode(id ids.ProcID, factory node.Factory) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("livenet: duplicate node %v", id))
	}
	n.nodes[id] = &lnode{
		net:     n,
		id:      id,
		factory: factory,
		stable:  storage.NewStore(),
		met:     metrics.NewProc(),
		rng:     rand.New(rand.NewSource(n.cfg.Seed ^ int64(id)*7919)),
	}
	if !id.IsStorage() {
		n.nApp++
	}
}

// Boot starts every node.
func (n *Net) Boot() {
	n.mu.Lock()
	list := make([]*lnode, 0, len(n.nodes))
	for _, ln := range n.nodes {
		list = append(list, ln)
	}
	n.start = time.Now()
	n.mu.Unlock()
	for _, ln := range list {
		ln.mu.Lock()
		ln.up = true
		ln.proc = ln.factory()
		ln.proc.Boot(ln, false)
		ln.mu.Unlock()
	}
}

// Close shuts the runtime down and waits for in-flight handlers.
func (n *Net) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
}

// Crash kills a node; the watchdog restarts it after the configured
// detection and restart delays, exactly like the simulator.
func (n *Net) Crash(id ids.ProcID) {
	ln := n.node(id)
	if ln == nil {
		return
	}
	ln.mu.Lock()
	if !ln.up {
		ln.mu.Unlock()
		return
	}
	ln.up = false
	ln.epoch++
	ln.proc = nil
	ln.met.BlockEnd(n.vnow())
	ln.met.Recoveries = append(ln.met.Recoveries, metrics.RecoveryTrace{CrashedAt: n.vnow()})
	n.tr.Instant(n.vnow(), int32(id), trace.EvCrash, trace.Tag{})
	ln.downSpan = n.tr.Begin(n.vnow(), int32(id), trace.EvDown, trace.Tag{})
	ln.mu.Unlock()
	n.tracef("%v CRASH", id)

	delay := n.scale(n.cfg.HW.WatchdogDetect + n.cfg.HW.RestartDelay)
	time.AfterFunc(delay, func() {
		if !n.enter() {
			return
		}
		defer n.exit()
		ln.mu.Lock()
		defer ln.mu.Unlock()
		if ln.up {
			return
		}
		ln.up = true
		ln.proc = ln.factory()
		if tr := ln.met.CurrentRecovery(); tr != nil && tr.RestartedAt == 0 {
			tr.RestartedAt = n.vnow()
		}
		n.tr.End(ln.downSpan, n.vnow())
		ln.downSpan = 0
		n.tr.Instant(n.vnow(), int32(id), trace.EvRestart, trace.Tag{})
		n.tracef("%v RESTART", id)
		ln.proc.Boot(ln, true)
	})
}

func (n *Net) node(id ids.ProcID) *lnode {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodes[id]
}

// Metrics returns a node's accumulator. Callers must treat it as
// read-mostly; precise reads should happen after Close.
func (n *Net) Metrics(id ids.ProcID) *metrics.Proc {
	if ln := n.node(id); ln != nil {
		return ln.met
	}
	return nil
}

// Inspect runs fn with the node's process instance under the node lock
// (nil if the node is down); used by examples to read protocol state.
func (n *Net) Inspect(id ids.ProcID, fn func(p node.Process)) {
	ln := n.node(id)
	if ln == nil {
		fn(nil)
		return
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	fn(ln.proc)
}

// AttachTimeline drives col from a wall-clock ticker at the collector's
// interval (scaled by TimeScale) — the live-runtime analogue of the
// simulator's virtual-time sampler, sampling the same gauges so sim and
// live timelines are directly comparable. Rows are stamped with virtual
// time, like the simulator's; unlike the simulator's, tick alignment is
// best-effort (the ticker drifts with the host scheduler). The returned
// stop function halts sampling; call it before Close.
func (n *Net) AttachTimeline(col *timeline.Collector) (stop func()) {
	met := func(i int) *metrics.Proc { return n.Metrics(ids.ProcID(i)) }
	col.Bind(timeline.Probes{
		Proc: func(i int) timeline.ProcGauges {
			ln := n.node(ids.ProcID(i))
			if ln == nil {
				return timeline.ProcGauges{Phase: timeline.PhaseDown}
			}
			ln.mu.Lock()
			defer ln.mu.Unlock()
			g := timeline.ProcGauges{Phase: timeline.PhaseDown, StableBytes: ln.stable.Bytes()}
			if !ln.up {
				return g
			}
			g.Phase = timeline.PhaseLive
			// The runtime is protocol-agnostic, so protocol gauges come from
			// optional introspection interfaces (fbl.Process has all three).
			if b, ok := ln.proc.(interface{ Blocked() bool }); ok && b.Blocked() {
				g.Phase = timeline.PhaseBlocked
			}
			if j, ok := ln.proc.(interface{ DetLogLen() int }); ok {
				g.Journal = j.DetLogLen()
			}
			if j, ok := ln.proc.(interface{ DetPending() int }); ok {
				g.Lag = j.DetPending()
			}
			return g
		},
		Metrics: met,
		Markers: func() []timeline.Marker {
			return timeline.RecoveryMarkers(n.nApp, met)
		},
	})
	ticker := time.NewTicker(n.scale(col.Interval()))
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				col.Tick(n.vnow())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			ticker.Stop()
			close(done)
		})
	}
}

func (n *Net) tracef(format string, args ...any) {
	if n.cfg.Trace == nil {
		return
	}
	n.traceM.Lock()
	defer n.traceM.Unlock()
	fmt.Fprintf(n.cfg.Trace, "[%12s] ", time.Duration(n.vnow()))
	fmt.Fprintf(n.cfg.Trace, format, args...)
	fmt.Fprintln(n.cfg.Trace)
}

// lnode implements node.Env for one goroutine-backed node.
type lnode struct {
	net     *Net
	id      ids.ProcID
	factory node.Factory
	stable  *storage.Store
	met     *metrics.Proc
	rng     *rand.Rand

	mu       sync.Mutex // serializes all process event handling
	up       bool
	epoch    uint64
	proc     node.Process
	downSpan trace.SpanRef // open crash→restart span
}

var _ node.Env = (*lnode)(nil)

func (ln *lnode) ID() ids.ProcID         { return ln.id }
func (ln *lnode) N() int                 { return ln.net.nApp }
func (ln *lnode) Now() int64             { return ln.net.vnow() }
func (ln *lnode) Rand() *rand.Rand       { return ln.rng }
func (ln *lnode) Metrics() *metrics.Proc { return ln.met }
func (ln *lnode) Tracer() trace.Tracer   { return ln.net.tr }

func (ln *lnode) Logf(format string, args ...any) {
	if ln.net.cfg.Trace != nil {
		ln.net.tracef("%v: %s", ln.id, fmt.Sprintf(format, args...))
	}
}

// Busy models CPU consumption by sleeping while holding the node lock.
func (ln *lnode) Busy(d time.Duration) {
	time.Sleep(ln.net.scale(d))
}

// Send encodes and schedules delivery after the modeled link delay, FIFO
// per link.
func (ln *lnode) Send(to ids.ProcID, e *wire.Envelope) {
	if to == ln.id {
		panic(fmt.Sprintf("livenet: %v sent to itself", ln.id))
	}
	e.From = ln.id
	frame := wire.Encode(e)
	ln.met.Sent(uint8(e.Kind), len(frame))
	n := ln.net
	sentAt := n.vnow()
	n.tr.Instant(sentAt, int32(ln.id), trace.EvSend,
		trace.Tag{Kind: uint8(e.Kind), Arg: int64(len(frame))})

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	delay := n.scale(n.cfg.HW.Net.Latency + n.cfg.HW.Net.TransmitTime(len(frame)))
	at := time.Now().Add(delay)
	key := [2]ids.ProcID{ln.id, to}
	if prev, ok := n.links[key]; ok && !at.After(prev) {
		at = prev.Add(time.Microsecond)
	}
	n.links[key] = at
	n.mu.Unlock()

	time.AfterFunc(time.Until(at), func() {
		if !n.enter() {
			return
		}
		defer n.exit()
		dst := n.node(to)
		if dst == nil {
			return
		}
		dst.mu.Lock()
		defer dst.mu.Unlock()
		if !dst.up {
			dst.met.Dropped++
			return
		}
		// One envelope per frame: handlers run under dst.mu on timer
		// goroutines, so there is no runtime-owned envelope to decode into.
		decoded, err := wire.Decode(frame)
		if err != nil {
			panic(fmt.Sprintf("livenet: undecodable frame: %v", err))
		}
		dst.met.Received(uint8(decoded.Kind), len(frame))
		dst.met.DeliveryHist.Record(time.Duration(n.vnow() - sentAt))
		n.tr.Instant(n.vnow(), int32(to), trace.EvRecv,
			trace.Tag{Kind: uint8(decoded.Kind), Arg: int64(len(frame))})
		dst.proc.Deliver(decoded)
	})
}

// Multicast is a Send per destination (node.Env); this runtime's cost is
// timers and goroutines, not the encoding.
func (ln *lnode) Multicast(dests []ids.ProcID, e *wire.Envelope) {
	for _, to := range dests {
		ln.Send(to, e)
	}
}

type liveTimer struct {
	t *time.Timer
}

func (t *liveTimer) Stop() { t.t.Stop() }

// After schedules fn under the node lock; the timer dies with the process
// instance.
func (ln *lnode) After(d time.Duration, fn func()) node.Timer {
	epoch := ln.epoch
	n := ln.net
	t := time.AfterFunc(n.scale(d), func() {
		if !n.enter() {
			return
		}
		defer n.exit()
		ln.mu.Lock()
		defer ln.mu.Unlock()
		if !ln.up || ln.epoch != epoch {
			return
		}
		fn()
	})
	return &liveTimer{t: t}
}

// ReadStable reads after the modeled storage latency.
func (ln *lnode) ReadStable(key string, cb func(img storage.Image, ok bool)) {
	ln.stableOp(true, key, storage.Image{}, cb)
}

// WriteStable writes after the modeled storage latency; a crash before
// completion loses the write. It takes ownership of img.Data (node.Env).
func (ln *lnode) WriteStable(key string, img storage.Image, cb func()) {
	ln.stableOp(false, key, img, func(storage.Image, bool) {
		if cb != nil {
			cb()
		}
	})
}

func (ln *lnode) stableOp(read bool, key string, img storage.Image, cb func(storage.Image, bool)) {
	n := ln.net
	epoch := ln.epoch
	var dur time.Duration
	var ok bool
	if read {
		img, ok = ln.stable.Get(key)
		dur = n.cfg.HW.Disk.ReadTime(img.Size())
		ln.met.StorageOp(false, img.Size(), dur)
		n.tr.Span(n.vnow(), int64(dur), int32(ln.id), trace.EvStorageRead,
			trace.Tag{Arg: int64(img.Size())})
	} else {
		dur = n.cfg.HW.Disk.WriteTime(img.Size())
		ln.met.StorageOp(true, img.Size(), dur)
		n.tr.Span(n.vnow(), int64(dur), int32(ln.id), trace.EvStorageWrite,
			trace.Tag{Arg: int64(img.Size())})
	}
	time.AfterFunc(n.scale(dur), func() {
		if !n.enter() {
			return
		}
		defer n.exit()
		ln.mu.Lock()
		defer ln.mu.Unlock()
		if ln.epoch != epoch {
			return
		}
		if !read {
			ln.stable.Put(key, img)
		}
		if !ln.up {
			return
		}
		cb(img, ok)
	})
}
