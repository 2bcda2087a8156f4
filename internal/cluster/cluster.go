// Package cluster is the one harness every recovery family runs under: it
// wires n protocol processes of the configured Family (FBL, coordinated
// checkpointing, or optimistic logging — see family.go for the per-family
// table), their workload, a crash plan, and the simulator together, so the
// experiments' overhead and recovery columns are comparable by construction.
// It checks liveness (every recovery completes) and, when outputs are
// tracked, output-commit safety for all families and, for FBL, the
// cross-process invariants the paper's proofs promise (§4): safety (no
// orphans), exactly-once delivery, and non-intrusion.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/workload"
)

// Config describes a simulated cluster.
type Config struct {
	// Family selects the recovery protocol; the zero value is FamilyFBL.
	// F, Style, and Fanout are FBL knobs the other families ignore.
	Family Family
	// N is the number of application processes (2..MaxProcs).
	N int
	// F is the failure budget; F >= N selects the f = n instance. Values
	// below 1 mean 1.
	F int
	// Seed drives all randomness.
	Seed int64
	// HW is the hardware cost model (defaults to Profile1995).
	HW node.Hardware
	// Style selects the recovery algorithm variant.
	Style recovery.Style
	// App builds each process's application.
	App workload.Factory
	// CheckpointEvery is the family's periodic-commit interval: FBL
	// checkpoint, coordinated snapshot, optimistic log flush.
	CheckpointEvery time.Duration
	// StatePad models the process image size (bytes added per checkpoint,
	// snapshot, or flush).
	StatePad int
	// Tracer, if non-nil, records structured events and recovery-phase
	// spans (see internal/trace). Nil disables structured tracing. With
	// Shards > 1 the tracer is invoked from shard goroutines and must be
	// safe for concurrent use (trace.Recorder is; see the golden-trace test
	// for per-process lanes, the canonical pattern).
	Tracer trace.Tracer
	// Shards is how many kernels the conservative-window scheduler (DESIGN
	// §2) partitions the processes across; 0 means 1. Every process's
	// execution — digests, outputs, timelines, each process's trace events
	// and so the text log trace.WriteText renders — is byte-identical for
	// any value; only host time changes. Step-indexed crashes (ApplyPlan,
	// Kernel) need a single shard.
	Shards int
	// Fanout > 0 selects the ring-based dissemination protocol mode with
	// that fanout degree (see fbl.Params.Fanout); 0 is the paper's literal
	// all-peers broadcast.
	Fanout int
	// TrackOutputs wires the output-commit ledger (DESIGN §10) into every
	// process. Off by default: tracking also changes the piggyback policy
	// (holder knowledge travels one hop past the stability threshold), so
	// runs without externally-visible output keep byte-identical traces.
	TrackOutputs bool
}

// MaxProcs bounds the cluster size. Holder sets, the wire codec, and the
// determinant tables are all width-agnostic (multi-word bitsets, tagged
// adaptive holder encodings, length-prefixed arrays), so this is a sanity
// cap on sweep cost rather than a structural limit; the sharded
// conservative-window scheduler and the fanout protocol mode keep n=1024
// tractable (see DESIGN.md §2, §5).
const MaxProcs = 1024

// FieldError refuses one field of a Config, or of a run description built
// on one (experiments.Spec). Field is the field's Go name, which a CLI may
// translate into its flag's.
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return e.Err.Error() }

// Refuse returns a FieldError for field.
func Refuse(field, format string, args ...any) error {
	return &FieldError{Field: field, Err: fmt.Errorf(format, args...)}
}

// Validate reports what New refuses to build, as a FieldError: a size
// outside [2, MaxProcs], an unknown family or FBL recovery style, a hardware
// profile whose minimum network latency — the sharded kernel's window width
// — is not positive, negative jitter, a drop rate outside [0, 1), a negative
// checkpoint interval, state padding a Pad field's 32-bit count cannot hold
// (any less restores), or a shard count outside [0, MaxProcs].
// The zero HW and the zero Family are defaults, not errors.
func (cfg Config) Validate() error {
	switch {
	case cfg.N < 2 || cfg.N > MaxProcs:
		return Refuse("N", "cluster size n=%d out of range [2,%d]", cfg.N, MaxProcs)
	case families[cfg.Family] == nil && cfg.Family != "":
		return Refuse("Family", "unknown family %q", cfg.Family)
	case (cfg.Family == "" || cfg.Family == FamilyFBL) && (cfg.Style < recovery.NonBlocking || cfg.Style > recovery.Manetho):
		return Refuse("Style", "unknown recovery %v (want nonblocking, blocking or manetho)", cfg.Style)
	case cfg.HW != (node.Hardware{}) && cfg.HW.Net.Latency <= 0:
		return Refuse("HW", "hardware profile has network latency %v; it must be positive", cfg.HW.Net.Latency)
	case cfg.HW.Net.Jitter < 0:
		return Refuse("Jitter", "network jitter %v is negative", cfg.HW.Net.Jitter)
	case !(cfg.HW.Net.DropRate >= 0 && cfg.HW.Net.DropRate < 1):
		return Refuse("DropRate", "drop rate %v out of range [0,1)", cfg.HW.Net.DropRate)
	case cfg.CheckpointEvery < 0:
		return Refuse("CheckpointEvery", "checkpoint interval %v is negative (0 disables checkpoints)", cfg.CheckpointEvery)
	case cfg.StatePad < 0 || cfg.StatePad > math.MaxInt32:
		return Refuse("StatePad", "state padding %d out of range [0,%d]", cfg.StatePad, math.MaxInt32)
	case cfg.Shards < 0 || cfg.Shards > MaxProcs:
		return Refuse("Shards", "shard count %d out of range [0,%d]", cfg.Shards, MaxProcs)
	}
	return nil
}

// Cluster is a running simulation plus its invariant-checking observers.
type Cluster struct {
	cfg  Config
	K    *sim.Sharded
	outs *output.Ledger

	// mu guards the violations, which the FBL hooks and the output ledger's
	// conflict probe of every process append to: with several shards they
	// fire from per-shard goroutines. The per-process timelines need no lock:
	// each is touched only by its own process's hooks, which run on the shard
	// that owns the process, and the window barrier orders them before Check.
	mu         sync.Mutex
	violations []string

	// FBL checker state, allocated by the FBL family row only: harness-side
	// timelines (survive crashes; truncated on OnLive).
	sends      []history[sendInfo]    // per sender, indexed by ssn
	deliveries []history[deliverInfo] // per receiver, indexed by rsn
	seen       []dupIndex             // per receiver: fast duplicate check

	crashes int // crashes scheduled so far (Settled waits for them)
}

// New builds and boots a cluster; it panics on a Config that Validate
// refuses.
func New(cfg Config) *Cluster {
	c := new(Cluster)
	if err := c.Reset(cfg); err != nil {
		panic("cluster: " + err.Error())
	}
	return c
}

// Reset rebuilds the cluster for cfg and boots it, as New(cfg) would, but on
// the arenas of the run before: the simulator's (sim.Sharded.Reset), the
// output ledger's records and the checker's send and delivery timelines. A
// Config that Validate refuses is an error, and so is one with another N,
// Family, Style or Shards than the cluster was built with. On error the
// cluster is unchanged. Every *Cluster method result and *metrics.Proc read
// before the reset describes the run that is gone.
func (c *Cluster) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.F < 1 {
		cfg.F = 1
	}
	if cfg.HW == (node.Hardware{}) {
		cfg.HW = node.Profile1995()
	}
	if cfg.Family == "" {
		cfg.Family = FamilyFBL
	}
	scfg := sim.Config{Seed: cfg.Seed, HW: cfg.HW, Tracer: cfg.Tracer}
	if c.K == nil {
		c.K = sim.NewSharded(scfg, max(1, cfg.Shards))
		c.outs = output.NewLedger(cfg.N)
	} else {
		was := c.cfg
		switch {
		case cfg.N != was.N:
			return Refuse("N", "cluster of n=%d reset to n=%d", was.N, cfg.N)
		case cfg.Family != was.Family:
			return Refuse("Family", "%s cluster reset to family %s", was.Family, cfg.Family)
		case cfg.Style != was.Style:
			return Refuse("Style", "%v cluster reset to recovery %v", was.Style, cfg.Style)
		case max(1, cfg.Shards) != max(1, was.Shards):
			return Refuse("Shards", "cluster of %d shards reset to %d", max(1, was.Shards), max(1, cfg.Shards))
		}
		c.K.Reset(scfg)
		c.outs.Reset()
	}
	clear(c.violations)
	*c = Cluster{
		cfg: cfg, K: c.K, outs: c.outs, violations: c.violations[:0],
		sends: c.sends, deliveries: c.deliveries, seen: c.seen,
	}
	var outs output.Sink
	if cfg.TrackOutputs {
		c.outs.SetTracer(trace.OrNop(cfg.Tracer))
		c.outs.SetMetrics(c.K.Metrics)
		c.outs.SetOnConflict(func(proc ids.ProcID, seq uint64, oldHash, newHash uint64) {
			c.violate("output-commit: proc %d output #%d re-requested with different content after release (%#x -> %#x)",
				proc, seq, oldHash, newHash)
		})
		outs = c.outs
	}
	renew := families[cfg.Family](c, workload.Seeded(cfg.App, cfg.Seed), outs)
	for i := 0; i < cfg.N; i++ {
		c.K.AddSlot(ids.ProcID(i), renew)
	}
	if cfg.Family == FamilyFBL && cfg.F >= cfg.N {
		c.K.AddSlot(ids.StorageProc, fbl.NewStorageNode(cfg.N, cfg.F))
	}
	c.K.Boot()
	return nil
}

func (c *Cluster) violate(format string, args ...any) {
	c.mu.Lock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// AttachTimeline binds col's probes to this cluster and installs its
// sampler on the simulator. The sampler fires between shard runs at
// virtual-time boundaries without enqueueing events, so attaching a
// collector leaves the event sequence — and the golden trace hash — exactly
// as it would be without one. Call before Run; col.N() must equal cfg.N.
func (c *Cluster) AttachTimeline(col *timeline.Collector) {
	if col.N() != c.cfg.N {
		panic(fmt.Sprintf("cluster: timeline collector for n=%d attached to n=%d cluster",
			col.N(), c.cfg.N))
	}
	col.Bind(timeline.Probes{
		Queue: func() (int, int) {
			return c.K.QueueDepth(), c.K.InFlightFrames()
		},
		Proc: func(i int) timeline.ProcGauges {
			id := ids.ProcID(i)
			g := timeline.ProcGauges{
				Phase:       node.PhaseDown,
				StableBytes: c.K.Store(id).Bytes(),
			}
			if c.cfg.TrackOutputs {
				g.Backlog = c.outs.OpenOf(id)
				g.OldestOpen = c.outs.OldestOpenOf(id)
			}
			p := c.hosted(id)
			if p == nil {
				return g
			}
			g.Phase = p.Phase()
			if l, ok := p.(interface{ LogSizes() (int, int) }); ok {
				g.Journal, g.Lag = l.LogSizes()
			}
			if a, ok := p.App().(interface{ InflightReqs() int }); ok {
				g.Inflight = a.InflightReqs()
			}
			return g
		},
		Metrics: func(i int) *metrics.Proc { return c.K.Metrics(ids.ProcID(i)) },
	})
	c.K.AddSampler(col.Interval(), col.Tick)
}

// Run advances virtual time to the given instant since start.
func (c *Cluster) Run(until time.Duration) { c.K.Run(until) }

// RunContext advances virtual time to the given instant since start,
// stopping early when ctx is done. It returns the number of simulator
// events dispatched — the deterministic cost of simulating the scenario,
// which the bench harness reports as sim_events; a stopped timer is not one —
// and ctx's error if the run was cut short.
func (c *Cluster) RunContext(ctx context.Context, until time.Duration) (int64, error) {
	return c.K.RunContext(ctx, until)
}

// Crash schedules a crash of process p at virtual time at.
func (c *Cluster) Crash(at time.Duration, p ids.ProcID) {
	c.crashes++
	c.K.CrashAt(at, p)
}

// ApplyPlan schedules a whole crash plan: entries with Step > 0 at kernel
// event-dispatch boundaries (sim.CrashAtStep), which need a single shard —
// several have no one global event order to index — the rest at virtual
// times.
func (c *Cluster) ApplyPlan(plan failure.Plan) {
	for _, cr := range plan.Sorted() {
		switch k := c.Kernel(); {
		case cr.Step <= 0:
			c.Crash(cr.At, cr.Proc)
		case k == nil:
			panic("cluster: a step-indexed crash needs a single shard")
		default:
			c.crashes++
			k.CrashAtStep(cr.Step, cr.Proc)
		}
	}
}

// Kernel returns the one kernel of a single-shard cluster, or nil when there
// are several. The explorer uses it to attach step probes and read step
// indices.
func (c *Cluster) Kernel() *sim.Kernel { return c.K.Single() }

// Inject offers an open-loop arrival to process p's application and
// reports whether it was admitted; a down, blocked, recovering, or
// rolling-back process sheds. Under FBL, injections are only replay-sound on
// processes that never crash (see fbl.Process.Inject) — keep injected
// processes out of the crash plan (the orphan check catches violations).
func (c *Cluster) Inject(p ids.ProcID, payload []byte) bool {
	pr := c.hosted(p)
	return pr != nil && pr.Inject(payload)
}

// Metrics returns process p's accumulator.
func (c *Cluster) Metrics(p ids.ProcID) *metrics.Proc { return c.K.Metrics(p) }

// Outputs returns the cluster-wide output-commit ledger (DESIGN §10).
func (c *Cluster) Outputs() *output.Ledger { return c.outs }

// App returns the application hosted at p (nil while down).
func (c *Cluster) App(p ids.ProcID) workload.App {
	if pr := c.hosted(p); pr != nil {
		return pr.App()
	}
	return nil
}

// AllDone reports whether every application says its share of the workload
// completed (down processes count as not done).
func (c *Cluster) AllDone() bool {
	for i := 0; i < c.cfg.N; i++ {
		a := c.App(ids.ProcID(i))
		if a == nil || !a.Done() {
			return false
		}
	}
	return true
}

// Settled reports whether the workload finished AND every scheduled crash
// has been applied and completed its recovery.
func (c *Cluster) Settled() bool {
	return c.AllDone() && c.K.CrashesApplied() >= c.crashes && len(c.liveness()) == 0
}

// RunUntilDone advances time in steps until the cluster is settled (see
// Settled) or the horizon passes.
func (c *Cluster) RunUntilDone(step, horizon time.Duration) bool {
	for t := step; t <= horizon; t += step {
		c.Run(t)
		if c.Settled() {
			return true
		}
	}
	return c.Settled()
}

// liveness is the per-process liveness clause (§4.2/§4.4), the same for
// every family: each process is up, in its family's live phase, and — if it
// ever crashed — its latest recovery trace is complete. Being per-process,
// it is indifferent to how many crashes it took to get there: explorer-
// synthesized schedules may re-crash a process that is still down (a kernel
// no-op) or one that is mid-recovery (one recovery then answers for both).
func (c *Cluster) liveness() []error {
	var errs []error
	for i := 0; i < c.cfg.N; i++ {
		id := ids.ProcID(i)
		p := c.hosted(id)
		if p == nil {
			errs = append(errs, fmt.Errorf("liveness: %v still down", id))
			continue
		}
		if ph := p.Phase(); ph != node.PhaseLive && ph != node.PhaseBlocked {
			errs = append(errs, fmt.Errorf("liveness: %v stuck in phase %v", id, ph))
		} else if tr := c.Metrics(id).CurrentRecovery(); tr != nil && tr.ReplayedAt == 0 {
			errs = append(errs, fmt.Errorf("liveness: %v is up but its recovery never completed", id))
		}
	}
	return errs
}

// Check verifies the end-state invariants and returns every violation
// found (nil means the run was consistent).
func (c *Cluster) Check() []error {
	var errs []error
	for _, v := range c.violations {
		errs = append(errs, fmt.Errorf("%s", v))
	}
	errs = append(errs, c.liveness()...)
	if c.cfg.Family != FamilyFBL {
		// Orphans and live-process stalls are what the rollback families
		// trade away; the lost-work (metrics.Proc.Rollbacks, LostDeliveries)
		// and blocked-time metrics report them.
		return errs
	}

	// Safety (§4.3): every delivery on a surviving timeline must match a
	// send on the sender's surviving timeline — otherwise the receiver is
	// an orphan of a rolled-back execution.
	for recv := 0; recv < c.cfg.N; recv++ {
		tl := &c.deliveries[recv]
		for rsn := uint64(0); rsn < tl.len(); rsn++ {
			d := tl.at(rsn)
			if !d.delivered() {
				continue
			}
			s := d.msg.Sender
			var rec sendInfo
			if k := uint64(d.msg.SSN); k < c.sends[s].len() {
				rec = *c.sends[s].at(k)
			}
			if !rec.sent {
				errs = append(errs, fmt.Errorf(
					"orphan: %v delivered %v (rsn %d) but %v's surviving execution never sent it",
					ids.ProcID(recv), d.msg, rsn, s))
				continue
			}
			if rec.to != ids.ProcID(recv) || rec.hash != d.hash {
				errs = append(errs, fmt.Errorf(
					"orphan: %v delivered %v (rsn %d) but %v's surviving send differs (to %v)",
					ids.ProcID(recv), d.msg, rsn, s, rec.to))
			}
			if p := c.Proc(s); p != nil && d.msg.SSN > p.SSN() {
				errs = append(errs, fmt.Errorf(
					"orphan: %v delivered %v but %v's execution only reached ssn %d",
					ids.ProcID(recv), d.msg, s, p.SSN()))
			}
		}
	}

	// Non-intrusion: the paper's algorithm never blocks live processes.
	if c.cfg.Style == recovery.NonBlocking {
		for i := 0; i < c.cfg.N; i++ {
			if b := c.Metrics(ids.ProcID(i)).BlockedTotal(); b != 0 {
				errs = append(errs, fmt.Errorf(
					"intrusion: nonblocking style blocked %v for %v", ids.ProcID(i), b))
			}
		}
	}
	return errs
}

// Digests returns each live application's state fingerprint.
func (c *Cluster) Digests() []uint64 {
	out := make([]uint64, c.cfg.N)
	for i := 0; i < c.cfg.N; i++ {
		if a := c.App(ids.ProcID(i)); a != nil {
			out[i] = a.Digest()
		}
	}
	return out
}
