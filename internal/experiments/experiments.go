// Package experiments reproduces the paper's evaluation (§5) and the
// derived sweeps its argument calls for. Each experiment returns a Table
// whose rows correspond to the quantities the paper reports; see DESIGN.md
// §3 for the experiment index and EXPERIMENTS.md for paper-vs-measured.
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

// DefaultTracer, if non-nil, is attached to every run whose Spec carries no
// tracer of its own. The experiments CLI sets it to capture recovery-phase
// spans across a whole experiment.
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
	// several. DefaultTracer is not attached when Shards > 1 (it is not safe
	// for shard goroutines); an explicit Tracer must be concurrency-safe.
	Shards int
	// Fanout > 0 selects the ring dissemination protocol mode with that
	// degree (cluster.Config.Fanout); 0 is the paper's all-peers broadcast.
	Fanout int
	// Tracer, if non-nil, records structured events for this run;
	// DefaultTracer is used when nil.
	Tracer trace.Tracer
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
	// until the horizon. The spec's N must equal Traffic.N(), and — because
	// FBL replay cannot regenerate injected arrivals, and the styles' crash
	// rows must stay comparable — the crash plan must not target the client
	// tier; Run panics on either misuse. Read the engine back via
	// Result.Traffic.
	Traffic *workload.Traffic
}

// PaperSpec is the baseline configuration modeled on the paper's testbed:
// eight workstations, f = 2, ~1 MB process images, an active irregular
// workload, and era hardware. The experiments and the bench sweep harness
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
	Traffic  *traffic.Engine
	recStart map[ids.ProcID]int64
}

// Run executes a spec to its horizon, or until ctx is done, and returns the
// collected result. On cancellation the returned Result covers the prefix
// of virtual time that ran (its invariants are NOT checked — a cut-short
// run is consistent but incomplete) and the error is ctx's.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	tr := spec.Tracer
	if tr == nil && spec.Shards <= 1 {
		tr = DefaultTracer
	}
	app := spec.App
	if spec.Traffic != nil {
		if spec.Traffic.N() != spec.N {
			panic(fmt.Sprintf("experiments: traffic topology needs n=%d, spec has n=%d",
				spec.Traffic.N(), spec.N))
		}
		for _, cr := range spec.Crashes {
			if spec.Traffic.TierOf(cr.Proc) == workload.TierClient {
				panic(fmt.Sprintf("experiments: crash plan targets client %d; "+
					"FBL replay cannot regenerate injected arrivals", cr.Proc))
			}
		}
		app = traffic.NewApp(*spec.Traffic)
	}
	c := cluster.New(cluster.Config{
		Family:          spec.Family,
		N:               spec.N,
		F:               spec.F,
		Seed:            spec.Seed,
		HW:              spec.HW,
		Style:           spec.Style,
		App:             app,
		CheckpointEvery: spec.CPEvery,
		StatePad:        spec.Pad,
		Tracer:          tr,
		TrackOutputs:    spec.TrackOutputs,
		Shards:          spec.Shards,
		Fanout:          spec.Fanout,
	})
	if spec.Timeline != nil {
		c.AttachTimeline(spec.Timeline)
	}
	c.ApplyPlan(spec.Crashes)
	var eng *traffic.Engine
	if spec.Traffic != nil {
		eng = traffic.NewEngine(*spec.Traffic, spec.Seed)
		eng.Attach(traffic.Host{At: c.K.At, Inject: c.Inject}, spec.Horizon)
	}
	events, err := c.RunContext(ctx, spec.Horizon)
	r := &Result{C: c, Spec: spec, Events: events, Traffic: eng}
	if err != nil {
		return r, err
	}
	r.Errors = c.Check()
	return r, nil
}

// MustRun panics on invariant violations — experiments must only report
// numbers from consistent runs. A ctx-cancelled run returns its partial
// result unchecked; callers bail out via ctx.Err().
func MustRun(ctx context.Context, spec Spec) *Result {
	r, err := Run(ctx, spec)
	if err != nil {
		return r
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

// LiveBlocked returns mean and max blocked time over the processes that
// never crashed.
func (r *Result) LiveBlocked() (mean, max time.Duration) {
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
	procs := make([]*metrics.Proc, r.Spec.N)
	for i := 0; i < r.Spec.N; i++ {
		procs[i] = r.C.Metrics(ids.ProcID(i))
	}
	return metrics.Cluster{Procs: procs}.MeanBlocked(lives)
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
