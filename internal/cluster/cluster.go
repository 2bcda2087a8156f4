// Package cluster is the one harness every recovery family runs under: it
// wires n protocol processes of the configured Family (FBL, coordinated
// checkpointing, or optimistic logging — see family.go for the per-family
// table), their workload, a crash plan, and the simulator together, so the
// experiments' overhead and recovery columns are comparable by construction.
// It checks liveness (every recovery completes) for all families and, for
// FBL, the cross-process invariants the paper's proofs promise (§4): safety
// (no orphans), exactly-once delivery, and non-intrusion.
package cluster

import (
	"context"
	"fmt"
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
	// F is the failure budget; F >= N selects the f = n instance.
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
	// any value; only host time changes. Step-indexed crashes (CrashAtStep,
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

// ValidateN checks a cluster size against MaxProcs. Every entry point that
// accepts an n — cluster construction and the bench sweep axes — funnels
// through this one helper so the limit and its message cannot drift apart.
func ValidateN(n int) error {
	if n < 2 || n > MaxProcs {
		return fmt.Errorf("cluster size n=%d out of range [2,%d]", n, MaxProcs)
	}
	return nil
}

// sendInfo and deliverInfo are the checker's records of one send and one
// delivery. Timelines are slices indexed by the owner's own counter (ssn,
// rsn), which start at 1 and are dense, so an index the execution never
// wrote holds the zero record; both types can tell that it is absent.
type sendInfo struct {
	to   ids.ProcID
	sent bool
	hash uint64
}

type deliverInfo struct {
	msg  ids.MsgID // msg.SSN == 0: no delivery recorded at this rsn
	hash uint64
}

func (d deliverInfo) delivered() bool { return d.msg.SSN != 0 }

// grown returns tl extended with zero records so that index i exists.
func grown[T any](tl []T, i uint64) []T {
	if i < uint64(len(tl)) {
		return tl
	}
	return append(tl, make([]T, i+1-uint64(len(tl)))...)
}

// upTo returns tl without the records beyond index i.
func upTo[T any](tl []T, i uint64) []T {
	if i+1 < uint64(len(tl)) {
		return tl[:i+1]
	}
	return tl
}

// Cluster is a running simulation plus its invariant-checking observers.
type Cluster struct {
	cfg  Config
	fam  family
	K    *sim.Sharded
	outs *output.Ledger

	// mu guards the violations, which the FBL hooks of every process append
	// to: with several shards the hooks fire from per-shard goroutines. The
	// per-process timelines need no lock: each is touched only by its own
	// process's hooks, which run on the shard that owns the process, and the
	// window barrier orders them before Check.
	mu sync.Mutex

	// FBL checker state, allocated by the FBL family row only: harness-side
	// timelines (survive crashes; truncated on OnLive).
	sends      [][]sendInfo            // per sender, indexed by ssn
	deliveries [][]deliverInfo         // per receiver, indexed by rsn
	seen       []map[ids.MsgID]ids.RSN // per receiver: fast duplicate check
	violations []string

	crashes int // crashes scheduled so far (Settled waits for them)
}

// New builds and boots a cluster.
func New(cfg Config) *Cluster {
	if err := ValidateN(cfg.N); err != nil {
		panic("cluster: " + err.Error())
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
	fam, ok := families[cfg.Family]
	if !ok {
		panic(fmt.Sprintf("cluster: unknown family %q", cfg.Family))
	}
	c := &Cluster{cfg: cfg, fam: fam}

	c.K = sim.NewSharded(sim.Config{Seed: cfg.Seed, HW: cfg.HW, Tracer: cfg.Tracer}, max(1, cfg.Shards))
	c.outs = output.NewLedger(cfg.N)
	var outs output.Sink
	if cfg.TrackOutputs {
		c.outs.SetTracer(trace.OrNop(cfg.Tracer))
		c.outs.SetMetrics(c.K.Metrics)
		outs = c.outs
	}
	factory := c.fam.factory(c, workload.Seeded(cfg.App, cfg.Seed), outs)
	for i := 0; i < cfg.N; i++ {
		c.K.AddNode(ids.ProcID(i), factory)
	}
	if cfg.Family == FamilyFBL && cfg.F >= cfg.N {
		c.K.AddNode(ids.StorageProc, fbl.NewStorageNode(cfg.N, cfg.F))
	}
	c.K.Boot()
	return c
}

// onSend maintains the sender's current-timeline send history: a send at
// ssn k supersedes any previously recorded sends at ssn >= k (they belonged
// to a rolled-back execution).
func (c *Cluster) onSend(self ids.ProcID, id ids.MsgID, to ids.ProcID, hash uint64) {
	k := uint64(id.SSN)
	tl := grown(c.sends[self], k)
	if old := tl[k]; old.sent && (old.to != to || old.hash != hash) {
		// Divergent regeneration: drop the stale tail beyond this point.
		tl = tl[:k+1]
	}
	tl[k] = sendInfo{to: to, sent: true, hash: hash}
	c.sends[self] = tl
}

// onDeliver maintains the receiver's current-timeline delivery history and
// checks exactly-once within a timeline.
func (c *Cluster) onDeliver(self ids.ProcID, id ids.MsgID, from ids.ProcID, rsn ids.RSN, hash uint64) {
	k := uint64(rsn)
	tl := grown(c.deliveries[self], k)
	seen := c.seen[self]
	old := tl[k]
	if old.delivered() && old.msg != id {
		// A new execution reused this rsn: it and everything beyond belonged
		// to the rolled-back timeline.
		c.forget(self, tl[k:])
		tl = tl[:k+1]
	}
	if prevRSN, dup := seen[id]; dup && prevRSN != rsn {
		c.violate("exactly-once: %v delivered %v at rsn %d and again at rsn %d", self, id, prevRSN, rsn)
	}
	if old.msg == id && old.hash != hash {
		c.violate("replay fidelity: %v re-delivered %v at rsn %d with different content", self, id, rsn)
	}
	tl[k] = deliverInfo{msg: id, hash: hash}
	c.deliveries[self] = tl
	seen[id] = rsn
}

// forget removes rolled-back deliveries from self's duplicate index.
func (c *Cluster) forget(self ids.ProcID, stale []deliverInfo) {
	for _, d := range stale {
		if d.delivered() {
			delete(c.seen[self], d.msg)
		}
	}
}

func (c *Cluster) violate(format string, args ...any) {
	c.mu.Lock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// onLive truncates the harness timelines to the surviving frontier: any
// send/delivery beyond the post-replay counters was rolled back for good.
func (c *Cluster) onLive(self ids.ProcID, inc ids.Incarnation, ssn ids.SSN, rsn ids.RSN) {
	c.sends[self] = upTo(c.sends[self], uint64(ssn))
	kept := upTo(c.deliveries[self], uint64(rsn))
	c.forget(self, c.deliveries[self][len(kept):])
	c.deliveries[self] = kept
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
				Phase:       timeline.PhaseDown,
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
			g.Phase = c.fam.phase(p)
			if c.fam.logSizes != nil {
				g.Journal, g.Lag = c.fam.logSizes(p)
			}
			if a, ok := p.App().(interface{ InflightReqs() int }); ok {
				g.Inflight = a.InflightReqs()
			}
			return g
		},
		Metrics: func(i int) *metrics.Proc { return c.K.Metrics(ids.ProcID(i)) },
		Markers: func() []timeline.Marker {
			return timeline.RecoveryMarkers(c.cfg.N, func(i int) *metrics.Proc {
				return c.K.Metrics(ids.ProcID(i))
			})
		},
	})
	c.K.SetSampler(col.Interval(), col.Tick)
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

// CrashAtStep schedules a crash of p at the given kernel event-dispatch
// boundary (sim.CrashAtStep). Step-indexed crashes need a single shard:
// several have no one global event order to index.
func (c *Cluster) CrashAtStep(step int64, p ids.ProcID) {
	k := c.Kernel()
	if k == nil {
		panic("cluster: CrashAtStep needs a single shard")
	}
	c.crashes++
	k.CrashAtStep(step, p)
}

// ApplyPlan schedules a whole crash plan; entries with Step > 0 are
// injected at event-dispatch boundaries, the rest at virtual times.
func (c *Cluster) ApplyPlan(plan failure.Plan) {
	for _, cr := range plan.Sorted() {
		if cr.Step > 0 {
			c.CrashAtStep(cr.Step, cr.Proc)
		} else {
			c.Crash(cr.At, cr.Proc)
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
		if ph := c.fam.phase(p); ph != timeline.PhaseLive && ph != timeline.PhaseBlocked {
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
		for rsn, d := range c.deliveries[recv] {
			if !d.delivered() {
				continue
			}
			s := d.msg.Sender
			var rec sendInfo
			if k := uint64(d.msg.SSN); k < uint64(len(c.sends[s])) {
				rec = c.sends[s][k]
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
