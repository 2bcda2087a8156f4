package cluster

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/storage"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/workload"
)

// resetConfigs are the cells of TestResetEqualsFresh: every family and
// every FBL style, on one shard and on two, with output tracking, under a
// closed-loop client-server load whose replies are outputs, on the explorer's
// compressed detector and restart.
func resetConfigs() []Config {
	hw := fastHW()
	hw.CPUMsgCost = 50 * time.Microsecond
	var cfgs []Config
	for _, row := range []struct {
		fam   Family
		style recovery.Style
	}{
		{FamilyFBL, recovery.NonBlocking},
		{FamilyFBL, recovery.Blocking},
		{FamilyFBL, recovery.Manetho},
		{FamilyCoordinated, recovery.NonBlocking},
		{FamilyOptimistic, recovery.NonBlocking},
	} {
		for _, shards := range []int{1, 2} {
			cfgs = append(cfgs, Config{
				Family: row.fam, N: 4, F: 1, Style: row.style, Seed: 5, HW: hw,
				App:             workload.NewClientServer(1<<20, 64, int64(200*time.Microsecond)),
				CheckpointEvery: 300 * time.Millisecond, StatePad: 1 << 20,
				Shards: shards, TrackOutputs: true,
			})
		}
	}
	return cfgs
}

// resetOutcome is everything TestResetEqualsFresh compares.
type resetOutcome struct {
	steps    uint64 // step-stream hash; one shard only
	events   int64
	windows  sim.WindowStats
	crashes  int // sim.Sharded.CrashesApplied
	digests  []uint64
	errs     []string
	procs    []string         // every metrics.Proc, histograms as counts and quantiles
	stores   []*storage.Store // read before the cluster is reset again
	records  []output.Record
	text     []byte // the trace stream, as trace.WriteText renders it
	timeline []byte // the sampled timeline's export
}

// procReading renders every field of m: each histogram by its count, sum,
// extremes and quantiles, the rest as fmt prints it.
func procReading(m *metrics.Proc) string {
	c := *m
	var b strings.Builder
	for _, h := range []*trace.Histogram{&c.StorageHist, &c.BlockedHist, &c.DeliveryHist, &c.OutputHist} {
		fmt.Fprintf(&b, "n=%d sum=%v min=%v max=%v q=", h.Count(), h.Total(), h.Min(), h.Max())
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			fmt.Fprintf(&b, " %v", h.Quantile(q))
		}
		b.WriteString("; ")
		*h = trace.Histogram{}
	}
	if len(c.Recoveries) == 0 {
		c.Recoveries = nil
	}
	fmt.Fprintf(&b, "%+v", c)
	return b.String()
}

// runReset resets c to cfg (a zero Cluster builds afresh) with a new
// recorder, applies the plan, runs it to the horizon and reads the outcome.
func runReset(t *testing.T, c *Cluster, cfg Config, plan failure.Plan, horizon time.Duration) resetOutcome {
	t.Helper()
	rec := trace.NewRecorder(1 << 17)
	cfg.Tracer = rec
	if err := c.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	col := timeline.New(timeline.Config{Interval: 50 * time.Millisecond, N: cfg.N, Label: "reset"})
	c.AttachTimeline(col)
	c.ApplyPlan(plan)
	var out resetOutcome
	if k := c.Kernel(); k != nil {
		out.steps = fnvOffset
		k.SetStepProbe(func(s sim.StepInfo) {
			for _, v := range []uint64{uint64(s.Step), uint64(s.At), uint64(s.Kind), uint64(uint32(s.Proc))} {
				out.steps = (out.steps ^ v) * fnvPrime
			}
		})
	}
	out.events = c.K.Run(horizon)
	out.windows, out.crashes = c.K.Windows(), c.K.CrashesApplied()
	out.digests = c.Digests()
	for _, err := range c.Check() {
		out.errs = append(out.errs, err.Error())
	}
	for i := 0; i < cfg.N; i++ {
		out.procs = append(out.procs, procReading(c.Metrics(ids.ProcID(i))))
		out.stores = append(out.stores, c.K.Store(ids.ProcID(i)))
	}
	out.records = c.Outputs().Records()
	if rec.Dropped() != 0 {
		t.Fatalf("trace recorder dropped %d events", rec.Dropped())
	}
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	out.text = buf.Bytes()
	var tl bytes.Buffer
	if err := col.Export().Encode(&tl); err != nil {
		t.Fatal(err)
	}
	out.timeline = tl.Bytes()
	return out
}

// dirtyPlan is a predecessor that leaves work behind: p1 crashes at 1 s and
// p2 at the first instant p1's recovery gathers (FBL) or rolls a process
// back (coordinated), else 5 ms after p1 restarts (optimistic), and the
// horizon cuts the run off, p2 still down, at the first send at least 20 ms
// after p2's crash that falls inside a stable write: that frame and the
// write are in flight. It returns the plan and the horizon.
func dirtyPlan(t *testing.T, cfg Config) (failure.Plan, time.Duration) {
	t.Helper()
	// events runs cfg under plan for 2 s and returns its trace from `after`.
	events := func(plan failure.Plan, after time.Duration) []trace.Event {
		rec := trace.NewRecorder(1 << 17)
		cfg.Tracer = rec
		c := New(cfg)
		c.ApplyPlan(plan)
		c.K.Run(2 * time.Second)
		evs := rec.Events()
		slices.SortStableFunc(evs, func(a, b trace.Event) int { return cmp.Compare(a.TS, b.TS) })
		i, _ := slices.BinarySearchFunc(evs, int64(after), func(e trace.Event, ts int64) int { return cmp.Compare(e.TS, ts) })
		return evs[i:]
	}
	first := failure.Crash{At: time.Second, Proc: 1}
	at := time.Duration(-1)
	for _, e := range events(failure.Plan{first}, first.At+1) {
		if e.Name == trace.EvGather || e.Name == trace.EvRollback {
			at = time.Duration(e.TS)
			break
		}
		if e.Name == trace.EvRestart && at < 0 {
			at = time.Duration(e.TS) + 5*time.Millisecond
		}
	}
	if at < 0 {
		t.Fatal("p1 never restarted")
	}
	plan := failure.Plan{first, {At: at, Proc: 2}}
	writeEnd := int64(-1) // the latest end of a stable write begun so far
	for _, e := range events(plan, at+20*time.Millisecond) {
		switch e.Name {
		case trace.EvStorageWrite:
			writeEnd = max(writeEnd, e.TS+e.Dur)
		case trace.EvSend:
			if e.TS < writeEnd {
				return plan, time.Duration(e.TS)
			}
		}
	}
	t.Fatal("nothing sent during a stable write after p2's crash")
	return nil, 0
}

// TestResetEqualsFresh: a cluster reset to a Config runs it exactly as New
// does — step stream, digests, Check, every metrics.Proc with its
// histograms, the stable stores, the output ledger, the trace stream and a
// sampled timeline — after a predecessor cut off mid-recovery with frames in
// flight, timers armed and a stable write outstanding. Run with frame
// poisoning off, when the reset run encodes into the buffers its predecessor
// left on the free lists, and on, when every buffer taken back is
// overwritten and a frame read after its arrival ended would show.
//
// The cells of one poisoning setting run in parallel; the setting, which is
// package-global, changes only between the two groups.
func TestResetEqualsFresh(t *testing.T) {
	t.Cleanup(func() { sim.TestingPoisonFrames = false })
	const horizon = 2 * time.Second
	planB := failure.Plan{{At: 700 * time.Millisecond, Proc: 3}}
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("poison=%v", poison), func(t *testing.T) {
			sim.TestingPoisonFrames = poison
			for _, cfg := range resetConfigs() {
				t.Run(fmt.Sprintf("%s-%v/shards=%d", cfg.Family, cfg.Style, cfg.Shards), func(t *testing.T) {
					t.Parallel()
					planA, cut := dirtyPlan(t, cfg)
					want := runReset(t, new(Cluster), cfg, planB, horizon)
					if len(want.errs) > 0 || len(want.records) == 0 {
						t.Fatalf("fresh run: %d outputs, violations %v", len(want.records), want.errs)
					}
					c := new(Cluster)
					runReset(t, c, cfg, planA, cut)
					if c.K.InFlightFrames() == 0 || c.K.QueueDepth() == 0 {
						t.Fatalf("predecessor left %d frames in flight and %d events queued, want some of each",
							c.K.InFlightFrames(), c.K.QueueDepth())
					}
					runReset(t, c, cfg, planB, horizon).mustEqual(t, want)
				})
			}
		})
	}
}

func (got resetOutcome) mustEqual(t *testing.T, want resetOutcome) {
	t.Helper()
	if got.steps != want.steps || got.events != want.events {
		t.Errorf("step stream %#x (%d events), fresh %#x (%d)", got.steps, got.events, want.steps, want.events)
	}
	if got.windows != want.windows || got.crashes != want.crashes {
		t.Errorf("windows %+v, %d crashes applied; fresh %+v, %d", got.windows, got.crashes, want.windows, want.crashes)
	}
	if !slices.Equal(got.digests, want.digests) {
		t.Errorf("digests %x, fresh %x", got.digests, want.digests)
	}
	if !slices.Equal(got.errs, want.errs) {
		t.Errorf("Check %q, fresh %q", got.errs, want.errs)
	}
	for i := range want.procs {
		if got.procs[i] != want.procs[i] {
			t.Errorf("p%d metrics:\n got %s\nfresh %s", i, got.procs[i], want.procs[i])
		}
		if !reflect.DeepEqual(got.stores[i], want.stores[i]) {
			t.Errorf("p%d stable store %v, fresh %v", i, got.stores[i], want.stores[i])
		}
	}
	if !slices.Equal(got.records, want.records) {
		t.Errorf("output ledger: %d records, fresh %d", len(got.records), len(want.records))
	}
	if !bytes.Equal(got.text, want.text) {
		t.Errorf("trace stream differs from the fresh run's (%d vs %d B)", len(got.text), len(want.text))
	}
	if !bytes.Equal(got.timeline, want.timeline) {
		t.Errorf("timeline export differs from the fresh run's")
	}
}

// TestResetRefusesAnotherShape: a reset may change the seed, the plan, the
// tracer and every knob, but not the size, family, style or shard count the
// cluster was built with (0 shards is 1), nor take a Config Validate
// refuses; a refused reset leaves the cluster booted as it was.
func TestResetRefusesAnotherShape(t *testing.T) {
	cfg := resetConfigs()[0]
	c := New(cfg)
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"N", func(c *Config) { c.N = 5 }},
		{"Family", func(c *Config) { c.Family = FamilyCoordinated }},
		{"Style", func(c *Config) { c.Style = recovery.Blocking }},
		{"Shards", func(c *Config) { c.Shards = 2 }},
		{"CheckpointEvery", func(c *Config) { c.CheckpointEvery = -1 }},
	} {
		bad := cfg
		tc.edit(&bad)
		var fe *FieldError
		if err := c.Reset(bad); !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("reset with another %s: error %v, want a FieldError on it", tc.field, err)
		}
	}
	c.Run(time.Second)
	mustCheck(t, c)
	if len(c.Outputs().Records()) == 0 {
		t.Fatal("the cluster requested no output after the refused resets")
	}
	same := cfg
	same.Shards, same.Seed = 0, 9
	if err := c.Reset(same); err != nil {
		t.Fatalf("reset to 0 shards and another seed: %v", err)
	}
}

// TestResetForgetsTheCheckersRun: right after a reset the checker's
// timelines and violations are what New's boot leaves. TestResetEqualsFresh
// cannot see stale timelines, which the checker mostly overwrites, nor
// stale violations, which a clean predecessor does not have.
func TestResetForgetsTheCheckersRun(t *testing.T) {
	cfg := resetConfigs()[0]
	c := New(cfg)
	c.ApplyPlan(failure.Plan{{At: 300 * time.Millisecond, Proc: 1}})
	c.Run(time.Second)
	c.violate("planted")
	if err := c.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	fresh := New(cfg)
	if len(c.violations) != 0 || c.crashes != 0 {
		t.Fatalf("after a reset: violations %q, %d crashes scheduled", c.violations, c.crashes)
	}
	for i := range cfg.N {
		seen, freshSeen := indexEntries(t, &c.seen[i], &c.deliveries[i]), indexEntries(t, &fresh.seen[i], &fresh.deliveries[i])
		if !slices.Equal(records(&c.sends[i]), records(&fresh.sends[i])) || !slices.Equal(records(&c.deliveries[i]), records(&fresh.deliveries[i])) ||
			!maps.Equal(seen, freshSeen) || len(seen) != 0 {
			t.Fatalf("after a reset p%d keeps %d sends, %d deliveries, %d seen; New's boot leaves %d, %d, %d (and an empty index)",
				i, c.sends[i].len(), c.deliveries[i].len(), len(seen),
				fresh.sends[i].len(), fresh.deliveries[i].len(), len(freshSeen))
		}
	}
}

// TestResetRestartKeepsTheProcess: a node slot keeps one process object for
// the life of its cluster. The golden scenario runs on a cluster reset from
// a predecessor cut off mid-run, on one shard and on two: the reset hands the
// predecessor's objects to the new run, ProcOf reads nil while a victim is
// down, its restart boots the very object it crashed, and the run still
// hashes to goldenTraceHash.
func TestResetRestartKeepsTheProcess(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pre := goldenConfig(nil)
			pre.Shards, pre.Seed = shards, 2
			c := New(pre)
			c.ApplyPlan(failure.Plan{{At: time.Second, Proc: 3}})
			c.Run(1500 * time.Millisecond)
			kept := map[node.Process]bool{}
			for i := range 4 {
				if p := c.K.ProcOf(ids.ProcID(i)); p != nil {
					kept[p] = true
				}
			}
			if len(kept) != 3 || c.K.ProcOf(3) != nil {
				t.Fatalf("predecessor: %d processes up, p3 %v; want 3 up and p3 down", len(kept), c.K.ProcOf(3))
			}

			lt := newLaneTracer(4)
			cfg := goldenConfig(lt)
			cfg.Shards = shards
			if err := c.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			c.ApplyPlan(goldenPlan())
			booted := make([]node.Process, 4)
			reused := 0
			for i := range booted {
				booted[i] = c.K.ProcOf(ids.ProcID(i))
				if kept[booted[i]] {
					reused++
				}
			}
			if reused < len(kept) {
				t.Fatalf("the reset booted %d of the predecessor's %d live process objects, want all", reused, len(kept))
			}
			for _, at := range []struct {
				until time.Duration
				down  []ids.ProcID
			}{{7 * time.Second, []ids.ProcID{1}}, {8500 * time.Millisecond, []ids.ProcID{1, 2}}, {goldenHorizon, nil}} {
				c.Run(at.until)
				for i, p := range booted {
					got := c.K.ProcOf(ids.ProcID(i))
					if down := slices.Contains(at.down, ids.ProcID(i)); down && got != nil || !down && got != p {
						t.Fatalf("at %v: ProcOf(%d) = %p, want %v", at.until, i, got,
							map[bool]string{true: "nil (down)", false: fmt.Sprintf("%p", p)}[down])
					}
				}
			}
			checkGolden(t, c, lt)
		})
	}
}
