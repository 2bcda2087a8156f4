// Sharded conservative-window scheduling (DESIGN §2): the cluster's
// processes are partitioned across independent Kernel instances that
// synchronize at fixed virtual-time boundaries.
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

// Runtime is the simulator surface the cluster harness drives: both the
// classic single-heap Kernel and the Sharded coordinator implement it.
type Runtime interface {
	AddNode(id ids.ProcID, factory node.Factory)
	Boot()
	Run(until time.Duration) int64
	RunContext(ctx context.Context, until time.Duration) (int64, error)
	At(d time.Duration, fn func())
	CrashAt(d time.Duration, id ids.ProcID)
	Now() int64
	Up(id ids.ProcID) bool
	ProcOf(id ids.ProcID) node.Process
	Metrics(id ids.ProcID) *metrics.Proc
	Store(id ids.ProcID) *storage.Store
	QueueDepth() int
	InFlightFrames() int
	SetSampler(every time.Duration, fn func(now int64))
	CrashesApplied() int
}

var _ Runtime = (*Kernel)(nil)
var _ Runtime = (*Sharded)(nil)

// outMsg is one frame buffered in a shard outbox between windows.
type outMsg struct {
	at     int64
	from   ids.ProcID
	to     ids.ProcID
	frame  []byte
	sentAt int64
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
	cfg    Config
	window int64
	shards []*Kernel
	outs   [][]outMsg
	batch  []outMsg // flush scratch, reused between boundaries
	now    int64
	nApp   int

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
		cfg:    cfg,
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

// Shards returns the shard count (for reporting).
func (s *Sharded) Shards() int { return len(s.shards) }

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

// At is unsupported: a harness callback would run inside one shard's window
// with no defined order against the other shards. Use the classic Kernel
// for scenarios that need mid-run harness callbacks (open-loop traffic).
func (s *Sharded) At(d time.Duration, fn func()) {
	panic("sim: Sharded does not support At; harness callbacks have no cross-shard order")
}

// SetSampler is unsupported: a sampler observes the whole cluster at exact
// virtual-time boundaries, which would serialize the shards it exists to
// decouple.
func (s *Sharded) SetSampler(every time.Duration, fn func(now int64)) {
	panic("sim: Sharded does not support samplers; use the classic Kernel for timeline capture")
}

// CrashAt schedules a crash of id at virtual time d from start, on the
// owning shard. Scheduled before Run (the harness pattern), the crash holds
// an earlier sequence number than any runtime event, so it pops first among
// same-instant events exactly as it does on the classic kernel.
func (s *Sharded) CrashAt(d time.Duration, id ids.ProcID) {
	s.shardFor(id).CrashAt(d, id)
}

// Run processes events until virtual time `until`; see Kernel.Run.
func (s *Sharded) Run(until time.Duration) int64 {
	n, _ := s.RunContext(context.Background(), until)
	return n
}

// RunContext advances all shards window by window until virtual time
// `until`, exchanging buffered frames at every boundary. Cancellation stops
// between boundaries, never inside a window, so a cancelled run resumes on
// the same grid and reproduces the identical event sequence.
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
		// earliest queued event anywhere (idle cells have no boundary
		// effects — empty outboxes exchange nothing).
		next := int64(-1)
		for _, k := range s.shards {
			if at, ok := k.peekNextAt(); ok && (next < 0 || at < next) {
				next = at
			}
		}
		if next < 0 || next > limit {
			break
		}
		base := next
		if s.now > base {
			base = s.now
		}
		end := (base/s.window + 1) * s.window
		target := end - 1
		if target > limit {
			// Tail window clamped at the horizon: events at `limit` itself
			// belong to this run (Kernel.Run processes at <= until), and
			// nothing they send can arrive before the grid boundary anyway.
			target = limit
		}
		var n int64
		var err error
		if s.prev >= s.fanOutAt {
			n, err = s.fanOut(ctx, target)
			s.stats.FannedOut++
		} else {
			n, err = s.runInline(ctx, target)
			s.stats.Inline++
		}
		s.prev = n
		s.stats.Events += n
		total += n
		s.flush()
		s.now = target
		if err != nil {
			return total, err
		}
	}
	// Settle: advance every clock to the horizon and account for cancelled
	// deadlines inside it, exactly like an idle classic kernel would. No
	// event is left to execute at or before the horizon, so this is not a
	// window and never worth a goroutine.
	n, err := s.runInline(ctx, limit)
	total += n
	s.now = limit
	return total, err
}

// A window runs every shard to the same inclusive target. The shards share
// no mutable state during a window — separate heaps, arenas, networks, and
// outboxes — and every cross-shard effect waits in an outbox for the sorted
// boundary flush, so neither the order in which the shards run nor whether
// they overlap can reorder events: runInline and fanOut are byte-identical in
// effect (pinned by TestWindowPathsAgree) and differ only in host time.

// runInline runs the shards one after the other on the calling goroutine.
// Like fanOut it visits every shard even after one reports a cancelled
// context, so a cancelled window leaves the same state on either path.
func (s *Sharded) runInline(ctx context.Context, target int64) (int64, error) {
	var total int64
	var firstErr error
	for i := range s.shards {
		n, err := s.runShard(ctx, i, target)
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// runShard runs shard i to target, naming the shard in any panic.
func (s *Sharded) runShard(ctx context.Context, i int, target int64) (int64, error) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: shard %d: %v", i, r))
		}
	}()
	return s.shards[i].RunContext(ctx, time.Duration(target))
}

// fanOut runs the shards in parallel, one goroutine each, and waits for all
// of them; it only shortens wall-clock time (the -cpu 1,4 golden test).
func (s *Sharded) fanOut(ctx context.Context, target int64) (int64, error) {
	until := time.Duration(target)
	var wg sync.WaitGroup
	counts := make([]int64, len(s.shards))
	errs := make([]error, len(s.shards))
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
			counts[i], errs[i] = s.shards[i].RunContext(ctx, until)
		}(i)
	}
	wg.Wait()
	var total int64
	var firstErr error
	for i := range s.shards {
		if panics[i] != nil {
			panic(fmt.Sprintf("sim: shard %d: %v", i, panics[i]))
		}
		total += counts[i]
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	return total, firstErr
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
	if len(batch) == 0 {
		s.batch = batch
		return
	}
	slices.SortStableFunc(batch, func(a, b outMsg) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return cmp.Compare(a.from, b.from)
	})
	for i := range batch {
		m := &batch[i]
		dk := s.shardFor(m.to)
		dk.scheduleArrive(m.at, dk.find(m.to), m.frame, m.sentAt)
		batch[i] = outMsg{}
	}
	s.batch = batch[:0]
}
