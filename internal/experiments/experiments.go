// Package experiments reproduces the paper's evaluation (§5) and the
// derived sweeps its argument calls for. Each experiment returns a Table
// whose rows correspond to the quantities the paper reports; see DESIGN.md
// §3 for the experiment index and EXPERIMENTS.md for paper-vs-measured.
//
// The same package runs the sweep behind BENCH_*.json (grid.go,
// snapshot.go): the paper's quantities — recovery time, live-process
// blocked time, recovery control traffic — over a grid of seed × cluster
// size × failure count × hardware profile × recovery style × offered load.
// Each cell is one single-threaded, deterministic simulation (Run), so
// cells are embarrassingly parallel: the worker pool only changes
// wall-clock time, never results. Cells are generated in sorted
// parameter-key order and written back by index, which makes the snapshot
// byte-stable across runs and GOMAXPROCS settings — the property the
// golden test and the CI regression gate (Compare) rely on. DESIGN.md §9
// has the schema and the determinism argument.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/traffic"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// DefaultTracer, if non-nil, is attached to every one-shard run. The
// experiments CLI sets it to capture recovery-phase spans across a whole
// experiment.
var DefaultTracer trace.Tracer

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = metrics.FmtDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", width[i]))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Spec describes one simulated run.
type Spec struct {
	// Family selects the recovery protocol (zero = FBL). F and Style are FBL
	// knobs; CPEvery is every family's periodic-commit interval (checkpoint,
	// snapshot, log flush) and Pad its stable-write padding.
	Family  cluster.Family
	N, F    int
	Style   recovery.Style
	Seed    int64
	HW      node.Hardware
	App     workload.Factory
	CPEvery time.Duration
	Pad     int
	Crashes failure.Plan
	Horizon time.Duration
	// Shards is cluster.Config.Shards: how many kernels share the run
	// (0 means 1); it changes host time only, and the n=1024 cells need
	// several. DefaultTracer is not attached when Shards > 1: the experiments
	// CLI exports it in recording order, which shard goroutines interleave
	// differently from run to run.
	Shards int
	// Fanout > 0 selects the ring dissemination protocol mode with that
	// degree (cluster.Config.Fanout); 0 is the paper's all-peers broadcast.
	Fanout int
	// TrackOutputs wires the output-commit ledger (DESIGN §10) into the
	// cluster; read it back with Result.C.Outputs().
	TrackOutputs bool
	// Timeline, if non-nil, is attached to the run's cluster before events
	// flow: the kernel samples it at the collector's interval (DESIGN §11).
	// Sampling is observation-only — it changes no event ordering — so a
	// spec with a collector simulates the exact run it would without one.
	Timeline *timeline.Collector
	// Traffic, if non-nil, replaces App with the open-loop multi-tier
	// serving workload (DESIGN §12): Run hosts traffic.NewApp(*Traffic) and
	// attaches a traffic.Engine driving seeded arrivals at the client tier
	// until the horizon; Validate holds the rules it adds. Read the engine
	// back via Result.Traffic.
	Traffic *workload.Traffic
}

// PaperSpec is the baseline configuration modeled on the paper's testbed:
// eight workstations, f = 2, ~1 MB process images, an active irregular
// workload, and era hardware. The E/D experiments and the sweep (SpecFor)
// both derive their scenarios from it, so the paper tables and the sweep
// snapshots can never drift apart.
func PaperSpec(style recovery.Style, seed int64) Spec {
	return Spec{
		N:     8,
		F:     2,
		Style: style,
		Seed:  seed,
		HW:    node.Profile1995(),
		// A long-TTL gossip keeps every process busy throughout the run;
		// one chain per process with ~1 ms of work per delivery keeps the
		// simulated message rate at roughly what the paper's testbed could
		// sustain.
		App:     workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
		CPEvery: 4 * time.Second,
		Pad:     1 << 20, // ~1 MB process state
		Horizon: 25 * time.Second,
	}
}

// styleRow is one protocol configuration a D11/D12 table block runs its
// cell under.
type styleRow struct {
	style  string
	family cluster.Family
	f      int
}

// styleRows enumerates the style configurations of one table block: the
// paper's FBL against the two alternative styles. The f=1 FBL row only
// earns its place in D11's failure-free block (it isolates the no-holder-
// feedback case); every other block keeps to one run per style.
func styleRows(withF1 bool) []styleRow {
	rows := []styleRow{{"fbl f=2 nonblocking", cluster.FamilyFBL, 2}}
	if withF1 {
		rows = append(rows, styleRow{"fbl f=1 nonblocking", cluster.FamilyFBL, 1})
	}
	return append(rows,
		styleRow{"coordinated", cluster.FamilyCoordinated, 2},
		styleRow{"optimistic", cluster.FamilyOptimistic, 2})
}

// comparator re-hosts a PaperSpec-derived scenario on another family. The
// coordinated snapshot keeps the spec's checkpoint period and ~1 MB image;
// optimistic logging flushes every 500 ms with 4 KB of padding — what it
// writes is delivery-log entries, not the process image.
func comparator(spec Spec, fam cluster.Family) Spec {
	spec.Family = fam
	if fam == cluster.FamilyOptimistic {
		spec.CPEvery = 500 * time.Millisecond
		spec.Pad = 4 << 10
	}
	return spec
}

// Result captures what the experiments read out of a finished run.
type Result struct {
	C    *cluster.Cluster
	Spec Spec
	// Errors are the cross-process invariant violations found after the
	// run (empty on a consistent run).
	Errors []error
	// Events is the number of simulator events processed — the
	// deterministic cost of simulating the scenario, independent of the
	// host's wall clock.
	Events int64
	// Traffic is the arrival engine of a Spec.Traffic run (offered /
	// admitted / shed readouts); nil otherwise.
	Traffic *traffic.Engine
}

// Validate is the one rule book a run is refused by, before anything is
// built; each refusal is a cluster.FieldError. It holds
// cluster.Config.Validate's rules and adds the run's: f >= 1 (a cluster runs
// f < 1 as f = 1), a horizon >= 0, a timeline sized N, and a plan applied as
// written (failure.Plan.Check, nothing after the horizon, step crashes on one
// shard). A Traffic topology must pass Traffic.Validate and match N, and no
// crash may hit a client: FBL replay cannot regenerate injected arrivals.
func (s Spec) Validate() error {
	if err := s.validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

func (s Spec) validate() error {
	if err := s.config(nil).Validate(); err != nil {
		return err
	}
	switch {
	case s.F < 1:
		return cluster.Refuse("F", "failure budget f=%d, want >= 1", s.F)
	case s.Horizon < 0:
		return cluster.Refuse("Horizon", "horizon %v is negative", s.Horizon)
	case s.Timeline != nil && s.Timeline.N() != s.N:
		return cluster.Refuse("Timeline", "timeline collector for n=%d, spec has n=%d", s.Timeline.N(), s.N)
	case s.Traffic != nil && s.Traffic.Validate() != nil:
		return &cluster.FieldError{Field: "Traffic", Err: s.Traffic.Validate()}
	case s.Traffic != nil && s.Traffic.N() != s.N:
		return cluster.Refuse("Traffic", "traffic topology needs n=%d, spec has n=%d", s.Traffic.N(), s.N)
	}
	if err := s.Crashes.Check(s.N); err != nil {
		return &cluster.FieldError{Field: "Crashes", Err: err}
	}
	for i, cr := range s.Crashes {
		switch {
		case cr.At > s.Horizon:
			return cluster.Refuse("Crashes", "plan entry %d (proc %d, step %d, at %v) is after the horizon %v, so it would never be injected", i, cr.Proc, cr.Step, cr.At, s.Horizon)
		case cr.Step > 0 && s.Shards > 1:
			return cluster.Refuse("Crashes", "plan entry %d (proc %d, step %d, at %v) is step-indexed, which needs one shard, not %d", i, cr.Proc, cr.Step, cr.At, s.Shards)
		case s.Traffic != nil && s.Traffic.TierOf(cr.Proc) == workload.TierClient:
			return cluster.Refuse("Crashes", "crash plan targets client %d; "+
				"FBL replay cannot regenerate injected arrivals", cr.Proc)
		}
	}
	return nil
}

// config is the cluster the spec describes, bar a Traffic run's application.
func (s Spec) config(tr trace.Tracer) cluster.Config {
	return cluster.Config{
		Family:          s.Family,
		N:               s.N,
		F:               s.F,
		Seed:            s.Seed,
		HW:              s.HW,
		Style:           s.Style,
		App:             s.App,
		CheckpointEvery: s.CPEvery,
		StatePad:        s.Pad,
		Tracer:          tr,
		TrackOutputs:    s.TrackOutputs,
		Shards:          s.Shards,
		Fanout:          s.Fanout,
	}
}

// Build is the one way a run is set up: it validates the spec, builds its
// cluster with tracer as cluster.Config.Tracer, and attaches the timeline
// collector, the crash plan and a Traffic spec's arrival engine. The Result
// is ready to run to spec.Horizon; a refused spec returns nil and the error.
func Build(spec Spec, tracer trace.Tracer) (*Result, error) {
	r := new(Result)
	if err := r.Reset(spec, tracer); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset sets up spec in place of the run r holds, as Build(spec, tracer)
// would, on the arenas of r's cluster (cluster.Cluster.Reset): a new plan, a
// new tracer, any spec Validate accepts with the cluster's N, Family, Style
// and Shards. A refused spec is an error and leaves r as it was. Whatever was
// read from r's run before — its cluster, metrics, stores, ledger — is dead.
func (r *Result) Reset(spec Spec, tracer trace.Tracer) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	cfg := spec.config(tracer)
	if spec.Traffic != nil {
		cfg.App = traffic.NewApp(*spec.Traffic)
	}
	c := r.C
	if c == nil {
		c = new(cluster.Cluster)
	}
	if err := c.Reset(cfg); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	*r = Result{C: c, Spec: spec}
	if spec.Timeline != nil {
		r.C.AttachTimeline(spec.Timeline)
	}
	r.C.ApplyPlan(spec.Crashes)
	if spec.Traffic != nil {
		r.Traffic = traffic.NewEngine(*spec.Traffic, spec.Seed)
		r.Traffic.Attach(traffic.Host{At: r.C.K.At, Inject: r.C.Inject}, spec.Horizon)
	}
	return nil
}

// Run builds a spec (with DefaultTracer on a one-shard run) and runs it to
// its horizon, or until ctx is done. On cancellation the Result covers the
// prefix of virtual time that ran (its invariants are NOT checked — a
// cut-short run is consistent but incomplete) and the error is ctx's. A
// refused spec returns a nil Result and the error, before anything runs.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	var tr trace.Tracer
	if spec.Shards <= 1 {
		tr = DefaultTracer
	}
	r, err := Build(spec, tr)
	if err != nil {
		return nil, err
	}
	if r.Events, err = r.C.RunContext(ctx, spec.Horizon); err != nil {
		return r, err
	}
	r.Errors = r.C.Check()
	return r, nil
}

// MustRun panics on a misused spec and on invariant violations —
// experiments must only report numbers from consistent runs. A
// ctx-cancelled run returns its partial result unchecked; callers bail out
// via ctx.Err().
func MustRun(ctx context.Context, spec Spec) *Result {
	r, err := Run(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			return r
		}
		panic(err)
	}
	// The gossip workload never reports Done, so liveness errors about the
	// workload itself do not occur; any error here is a real violation.
	if len(r.Errors) > 0 {
		panic(fmt.Sprintf("experiments: inconsistent run: %v", r.Errors[0]))
	}
	return r
}

// sampled runs spec with a timeline collector attached and returns the
// export. Sampling is observation-only, so the run's event sequence is
// identical to its unsampled counterpart.
func sampled(ctx context.Context, spec Spec, cfg timeline.Config) *timeline.Export {
	spec.Timeline = timeline.New(cfg)
	MustRun(ctx, spec)
	return spec.Timeline.Export()
}

// Victim returns the recovery trace of process p's last recovery.
func (r *Result) Victim(p ids.ProcID) *metrics.RecoveryTrace {
	return r.C.Metrics(p).CurrentRecovery()
}

// recoveryEnd is the virtual instant p finished its last recovery (0 if it
// never crashed).
func (r *Result) recoveryEnd(p ids.ProcID) time.Duration {
	if tr := r.Victim(p); tr != nil {
		return time.Duration(tr.ReplayedAt)
	}
	return 0
}

// liveProcs lists, in index order, the processes the crash plan never
// touches.
func (r *Result) liveProcs() []int {
	crashed := map[ids.ProcID]bool{}
	for _, cr := range r.Spec.Crashes {
		crashed[cr.Proc] = true
	}
	var lives []int
	for i := 0; i < r.Spec.N; i++ {
		if !crashed[ids.ProcID(i)] {
			lives = append(lives, i)
		}
	}
	return lives
}

// LiveBlocked returns mean and max blocked time over the processes that
// never crashed.
func (r *Result) LiveBlocked() (mean, max time.Duration) {
	lives := r.liveProcs()
	if len(lives) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, i := range lives {
		b := r.C.Metrics(ids.ProcID(i)).BlockedTotal()
		sum += b
		if b > max {
			max = b
		}
	}
	return sum / time.Duration(len(lives)), max
}

// recoveryKinds are the control messages attributable to the recovery
// algorithm itself (heartbeats and checkpoint notices are background).
var recoveryKinds = []wire.Kind{
	wire.KindRecoveryAnnounce, wire.KindIncRequest, wire.KindIncReply,
	wire.KindDepRequest, wire.KindDepReply, wire.KindRecoveryData,
	wire.KindRecoveryComplete, wire.KindReplayRequest, wire.KindRecovered,
}

// RecoveryTraffic sums the recovery-protocol control messages and bytes
// sent by all processes over the whole run.
func (r *Result) RecoveryTraffic() (msgs, bytes int64) {
	for i := 0; i < r.Spec.N; i++ {
		m := r.C.Metrics(ids.ProcID(i))
		for _, k := range recoveryKinds {
			msgs += m.MsgsSent[uint8(k)]
			bytes += m.BytesSent[uint8(k)]
		}
	}
	return msgs, bytes
}

// Breakdown splits a recovery trace into the phases the paper discusses.
type Breakdown struct {
	DetectRestart time.Duration // crash → process image back up
	Restore       time.Duration // stable-storage read of the checkpoint
	Gather        time.Duration // recovery protocol to depinfo in hand
	Replay        time.Duration // re-execution
	Total         time.Duration
}

// BreakdownOf converts a trace.
func BreakdownOf(tr *metrics.RecoveryTrace) Breakdown {
	if tr == nil || tr.ReplayedAt == 0 {
		return Breakdown{}
	}
	return Breakdown{
		DetectRestart: time.Duration(tr.RestartedAt - tr.CrashedAt),
		Restore:       time.Duration(tr.RestoredAt - tr.RestartedAt),
		Gather:        time.Duration(tr.GatheredAt - tr.RestoredAt),
		Replay:        time.Duration(tr.ReplayedAt - tr.GatheredAt),
		Total:         time.Duration(tr.ReplayedAt - tr.CrashedAt),
	}
}
