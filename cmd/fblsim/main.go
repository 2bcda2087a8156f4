// Command fblsim runs one rollback-recovery scenario in the deterministic
// simulator and prints a per-process summary.
//
// Usage:
//
//	fblsim -n 8 -f 2 -style nonblocking -crash 10s:3,14s:5 -horizon 30s
//
// Flags select the cluster size, failure budget, recovery algorithm,
// workload, hardware profile, and a crash schedule of time:pid pairs;
// -cpuprofile / -memprofile profile the run itself (cluster construction
// and report printing excluded).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/experiments"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/profile"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 8, "application processes")
		f        = flag.Int("f", 2, "failure budget (>= n selects the f=n instance)")
		styleF   = flag.String("style", "nonblocking", "recovery style: nonblocking|blocking|manetho")
		seed     = flag.Int64("seed", 1, "simulation seed")
		hwF      = flag.String("hw", "1995", "hardware profile: 1995|modern")
		jitter   = flag.Duration("jitter", 0, "network jitter: each frame is delayed by a uniform [0, jitter) more, FIFO per link kept")
		drop     = flag.Float64("drop", 0, "network drop rate in [0, 1): each frame is lost with this probability")
		appF     = flag.String("app", "gossip", "workload: gossip|ring|clientserver")
		crash    = flag.String("crash", "", "crash schedule, e.g. 10s:3,14s:5")
		horizon  = flag.Duration("horizon", 30*time.Second, "virtual run time")
		cpEvery  = flag.Duration("checkpoint", 4*time.Second, "checkpoint interval")
		pad      = flag.Int("statepad", 1<<20, "checkpoint padding bytes (process image size)")
		eventlog = flag.Bool("eventlog", false, "write the plain-text event log, rendered from the trace, to stderr")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
		traceSum = flag.Bool("trace-summary", false, "print the per-phase latency summary table")
		traceBuf = flag.Int("trace-buf", 1<<20, "trace ring capacity in events; older events are evicted when full")
		outputs  = flag.Bool("outputs", false, "track output commits (DESIGN §10); enables the timeline backlog series")
		tlOut    = flag.String("timeline", "", "sample the run and write the timeline export JSON here (render with cmd/timeline)")
		tlCSV    = flag.String("timeline-csv", "", "also write the cluster-level timeline CSV here")
		tlEvery  = flag.Duration("timeline-interval", timeline.DefaultInterval, "timeline sampling interval (virtual time)")
	)
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	style, err := recovery.ParseStyle(*styleF)
	if err != nil {
		fatal(err)
	}
	hw, err := node.ProfileByName(*hwF)
	if err != nil {
		fatal(err)
	}
	hw.Net.Jitter, hw.Net.DropRate = *jitter, *drop
	app, err := parseApp(*appF)
	if err != nil {
		fatal(err)
	}
	plan, err := parseCrashes(*crash, *n)
	if err != nil {
		fatal(fmt.Errorf("-crash: %w", err))
	}
	if err := timeline.CheckInterval(*tlEvery); err != nil {
		fatal(fmt.Errorf("-timeline-interval: %w", err))
	}
	if *traceBuf < 1 {
		fatal(fmt.Errorf("-trace-buf %d: the ring must hold at least one event", *traceBuf))
	}

	spec := experiments.Spec{
		N:            *n,
		F:            *f,
		Style:        style,
		Seed:         *seed,
		HW:           hw,
		App:          app,
		CPEvery:      *cpEvery,
		Pad:          *pad,
		Crashes:      plan,
		Horizon:      *horizon,
		TrackOutputs: *outputs,
	}
	var tracer trace.Tracer
	var rec *trace.Recorder
	if *traceOut != "" || *traceSum || *eventlog {
		rec = trace.NewRecorder(*traceBuf)
		tracer = rec
	}
	if *tlOut != "" || *tlCSV != "" {
		spec.Timeline = timeline.New(timeline.Config{
			Interval: *tlEvery,
			N:        *n,
			Label: fmt.Sprintf("fblsim n=%d f=%d style=%s hw=%s app=%s seed=%d",
				*n, *f, style, *hwF, *appF, *seed),
		})
	}
	r, err := experiments.Build(spec, tracer)
	if err != nil {
		var fe *cluster.FieldError
		if errors.As(err, &fe) && flagOf[fe.Field] != "" {
			err = fmt.Errorf("%s: %w", flagOf[fe.Field], err)
		}
		fatal(err)
	}
	c, col := r.C, spec.Timeline
	stopProfiles, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	c.Run(*horizon)
	if err := stopProfiles(); err != nil {
		fatal(err)
	}

	lossy := ""
	if *jitter != 0 || *drop != 0 {
		lossy = fmt.Sprintf(" jitter=%v drop=%g", *jitter, *drop)
	}
	fmt.Printf("scenario: n=%d f=%d style=%s hw=%s app=%s seed=%d horizon=%v crashes=%d%s\n\n",
		*n, *f, style, *hwF, *appF, *seed, *horizon, len(plan), lossy)
	fmt.Printf("%-5s %-10s %-9s %-9s %-9s %-10s %-10s %-9s\n",
		"proc", "delivered", "sent", "blocked", "storage", "recovery", "gather", "replay")
	for i := 0; i < *n; i++ {
		p := ids.ProcID(i)
		m := c.Metrics(p)
		sent, _ := m.TotalSent()
		rec, gather, replay := "-", "-", "-"
		if b := experiments.BreakdownOf(m.CurrentRecovery()); b.Total != 0 {
			rec = metrics.FmtDuration(b.Total)
			gather = metrics.FmtDuration(b.Gather)
			replay = metrics.FmtDuration(b.Replay)
		}
		fmt.Printf("%-5s %-10d %-9d %-9s %-9s %-10s %-10s %-9s\n",
			p, m.Delivered, sent, metrics.FmtDuration(m.BlockedTotal()),
			metrics.FmtDuration(m.StorageTime()), rec, gather, replay)
	}

	// Blocked-time distribution: which live processes recovery intruded on,
	// and how the stalls were sized — not just their sum.
	blockedAnywhere := false
	for i := 0; i < *n; i++ {
		if c.Metrics(ids.ProcID(i)).BlockedHist.Count() > 0 {
			blockedAnywhere = true
			break
		}
	}
	if blockedAnywhere {
		fmt.Printf("\nblocked-time distribution (per live process):\n")
		fmt.Printf("%-5s %-7s %-9s %-9s %-9s %-9s %-9s\n",
			"proc", "spans", "total", "p50", "p95", "p99", "max")
		for i := 0; i < *n; i++ {
			h := &c.Metrics(ids.ProcID(i)).BlockedHist
			if h.Count() == 0 {
				continue
			}
			fmt.Printf("%-5s %-7d %-9s %-9s %-9s %-9s %-9s\n",
				ids.ProcID(i), h.Count(),
				metrics.FmtDuration(h.Total()), metrics.FmtDuration(h.Quantile(0.50)),
				metrics.FmtDuration(h.Quantile(0.95)), metrics.FmtDuration(h.Quantile(0.99)),
				metrics.FmtDuration(h.Max()))
		}
	}

	var piggyDets, appMsgs int64
	for i := 0; i < *n; i++ {
		m := c.Metrics(ids.ProcID(i))
		piggyDets += m.PiggybackDets
		appMsgs += m.MsgsSent[uint8(wire.KindApp)]
	}
	if appMsgs > 0 {
		fmt.Printf("\npiggyback: %.2f determinants per app message\n", float64(piggyDets)/float64(appMsgs))
	}

	if rec != nil {
		if *eventlog {
			if err := trace.WriteText(os.Stderr, rec.Events()); err != nil {
				fatal(err)
			}
		}
		if *traceSum {
			fmt.Printf("\nrecovery-phase latency summary (%d events, %d dropped):\n",
				rec.Len(), rec.Dropped())
			if err := trace.WriteSummary(os.Stdout, rec.Events()); err != nil {
				fatal(err)
			}
		}
		if *traceOut != "" {
			if err := trace.WriteChromeFile(*traceOut, rec.Events()); err != nil {
				fatal(err)
			}
			fmt.Printf("\ntrace: %d events written to %s (open in ui.perfetto.dev)\n",
				rec.Len(), *traceOut)
		}
		if d := rec.Dropped(); d > 0 && (*traceOut != "" || *eventlog) {
			fmt.Printf("trace: ring full, %d oldest events evicted; rerun with a larger -trace-buf\n", d)
		}
	}

	if col != nil {
		exp := col.Export()
		if *tlOut != "" {
			if err := exp.WriteFile(*tlOut); err != nil {
				fatal(err)
			}
			fmt.Printf("\ntimeline: %d ticks, %d markers written to %s (render with cmd/timeline)\n",
				len(exp.Ticks), len(exp.Markers), *tlOut)
		}
		if *tlCSV != "" {
			if err := exp.WriteCSVFile(*tlCSV); err != nil {
				fatal(err)
			}
			fmt.Printf("timeline: CSV written to %s\n", *tlCSV)
		}
	}

	if errs := c.Check(); len(errs) > 0 {
		fmt.Println("\nINVARIANT VIOLATIONS:")
		for _, e := range errs {
			fmt.Println(" -", e)
		}
		os.Exit(1)
	}
	fmt.Println("\nall invariants hold (no orphans, exactly-once, all recoveries complete)")
}

func parseApp(s string) (workload.Factory, error) {
	switch strings.ToLower(s) {
	case "gossip":
		return workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)), nil
	case "ring":
		return workload.NewTokenRing(1_000_000, 256, int64(time.Millisecond)), nil
	case "clientserver":
		return workload.NewClientServer(1_000_000, 256, int64(time.Millisecond)), nil
	}
	return nil, fmt.Errorf("unknown workload %q", s)
}

// parseCrashes reads a time:pid list into a plan for an n-process run,
// refusing one failure.Plan.Check refuses.
func parseCrashes(s string, n int) (failure.Plan, error) {
	if s == "" {
		return nil, nil
	}
	var plan failure.Plan
	for _, part := range strings.Split(s, ",") {
		at, pid, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad crash spec %q (want time:pid)", part)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("bad crash time %q: %w", at, err)
		}
		p, err := strconv.ParseInt(pid, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad crash pid %q", pid)
		}
		plan = append(plan, failure.Crash{At: d, Proc: ids.ProcID(p)})
	}
	if err := plan.Check(n); err != nil {
		return nil, err
	}
	return plan, nil
}

// flagOf names the flag behind each field a refusal of the run can name.
var flagOf = map[string]string{"N": "-n", "F": "-f", "CheckpointEvery": "-checkpoint",
	"StatePad": "-statepad", "Crashes": "-crash", "Horizon": "-horizon", "Jitter": "-jitter", "DropRate": "-drop"}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fblsim:", err)
	os.Exit(2)
}
