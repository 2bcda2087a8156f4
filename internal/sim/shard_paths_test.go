package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/traffic"
	"rollrec/internal/workload"
)

// laneHash fingerprints a sharded run's structured trace: one FNV-1a lane
// per process (index proc+1; lane 0 is the storage pseudo-process), each
// written only by the shard that owns the process, compared lane by lane.
// Per-process order is what the window argument promises; a global arrival
// order would depend on how the shards overlap.
type laneHash struct{ lanes []uint64 }

func newLaneHash(n int) *laneHash {
	l := &laneHash{lanes: make([]uint64, n+1)}
	for i := range l.lanes {
		l.lanes[i] = 14695981039346656037
	}
	return l
}

func (l *laneHash) mix(proc int32, name string, vals ...uint64) {
	h := l.lanes[proc+1]
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h = (h ^ v&0xff) * 1099511628211
			v >>= 8
		}
	}
	l.lanes[proc+1] = h
}

func (l *laneHash) Enabled() bool { return true }

func (l *laneHash) Instant(ts int64, proc int32, name string, tag trace.Tag) {
	l.mix(proc, name, 1, uint64(ts), uint64(tag.Kind), uint64(tag.Inc), uint64(tag.Arg))
}

// Begin returns the lane as the span reference, which is all End needs.
func (l *laneHash) Begin(ts int64, proc int32, name string, tag trace.Tag) trace.SpanRef {
	l.mix(proc, name, 2, uint64(ts), uint64(tag.Kind), uint64(tag.Inc), uint64(tag.Arg))
	return trace.SpanRef(proc + 2)
}

func (l *laneHash) End(ref trace.SpanRef, ts int64) {
	if ref != 0 {
		l.mix(int32(ref)-2, "", 3, uint64(ts))
	}
}

func (l *laneHash) Span(ts, dur int64, proc int32, name string, tag trace.Tag) {
	l.mix(proc, name, 4, uint64(ts), uint64(dur), uint64(tag.Kind), uint64(tag.Inc), uint64(tag.Arg))
}

// pathSpec is one sharded scenario of TestWindowPathsAgree. With load set the
// run carries everything that lives on the coordinator or is shared between
// shards: an open-loop traffic engine (At callbacks), the output ledger and a
// timeline sampler.
type pathSpec struct {
	name    string
	cfg     cluster.Config
	plan    failure.Plan
	horizon time.Duration
	load    *workload.Traffic
}

var harnessLoad = workload.Traffic{
	Clients: 2, Frontends: 2, Backends: 4, FanOut: 2,
	Load: 250, WorkPerHop: int64(500 * time.Microsecond), PayloadPad: 256,
}

var pathSpecs = []pathSpec{
	{
		// The scenario of cluster's TestShardedGoldenTraceHash: four
		// processes, the second crash landing inside the first recovery.
		// Sparse but for the replay bursts, which fan out.
		name: "golden",
		cfg: cluster.Config{
			N: 4, F: 2, Seed: 1, HW: node.Profile1995(), Style: recovery.NonBlocking,
			App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
			CheckpointEvery: 4 * time.Second, StatePad: 1 << 20,
		},
		plan:    failure.Plan{{At: 6 * time.Second, Proc: 1}, {At: 8 * time.Second, Proc: 2}},
		horizon: 18 * time.Second,
	},
	{
		// The shape the n=256 and n=1024 cells run: fanout dissemination,
		// 10 ms of work per delivery, one crash. Almost all its windows are
		// sparse.
		name: "fanout64",
		cfg: cluster.Config{
			N: 64, F: 2, Seed: 3, HW: node.Profile1995(), Style: recovery.NonBlocking,
			App:             workload.NewRandomPeer(1, 40, 64, int64(10*time.Millisecond)),
			CheckpointEvery: 3 * time.Second, StatePad: 1 << 12, Fanout: 8,
		},
		plan:    failure.Plan{{At: 300 * time.Millisecond, Proc: 1}},
		horizon: 6 * time.Second,
	},
	{
		// Three-tier open-loop serving at the frontends' saturation knee with
		// a backend crash (cluster's TestOutputsGoldenTraceHash, shortened).
		name: "harness",
		cfg: cluster.Config{
			N: harnessLoad.N(), F: 1, Seed: 1, HW: node.Profile1995(), Style: recovery.NonBlocking,
			App:             traffic.NewApp(harnessLoad),
			CheckpointEvery: 2 * time.Second, StatePad: 1 << 20, TrackOutputs: true,
		},
		plan:    failure.Plan{{At: time.Second, Proc: 7}},
		horizon: 5500 * time.Millisecond,
		load:    &harnessLoad,
	},
}

// pathResult is everything a run must reproduce whichever way its windows ran.
type pathResult struct {
	events   int64
	digests  []uint64
	lanes    []uint64
	records  []output.Record
	timeline []byte
	windows  sim.WindowStats
}

func runPath(t *testing.T, spec pathSpec, shards int, force func(*sim.Sharded)) pathResult {
	t.Helper()
	lanes := newLaneHash(spec.cfg.N)
	cfg := spec.cfg
	cfg.Shards, cfg.Tracer = shards, lanes
	c := cluster.New(cfg)
	force(c.K)
	c.ApplyPlan(spec.plan)
	var col *timeline.Collector
	if spec.load != nil {
		col = timeline.New(timeline.Config{Interval: 50 * time.Millisecond, N: cfg.N, Tiers: spec.load.TierSizes()})
		c.AttachTimeline(col)
		traffic.NewEngine(*spec.load, cfg.Seed).Attach(traffic.Host{At: c.K.At, Inject: c.Inject}, spec.horizon)
	}
	events, err := c.RunContext(context.Background(), spec.horizon)
	if err != nil {
		t.Fatal(err)
	}
	if errs := c.Check(); len(errs) > 0 {
		t.Fatalf("run inconsistent: %v", errs)
	}
	res := pathResult{events: events, digests: c.Digests(), lanes: lanes.lanes, windows: c.K.Windows()}
	if col != nil {
		var buf bytes.Buffer
		if err := col.Export().Encode(&buf); err != nil {
			t.Fatal(err)
		}
		res.records, res.timeline = c.Outputs().Records(), buf.Bytes()
		if len(res.records) == 0 {
			t.Fatal("idle cell: no outputs requested")
		}
	}
	return res
}

// TestWindowPathsAgree is the proof obligation of the per-window choice: the
// same scenario with every window forced inline, every window forced onto
// goroutines, and the adaptive rule deciding must agree on the event count,
// every application digest, every process's trace lane, the output ledger and
// the sampled timeline, at 2 and 4 shards (CI also runs it under -race and
// -cpu 1,4).
func TestWindowPathsAgree(t *testing.T) {
	for _, spec := range pathSpecs {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.name, shards), func(t *testing.T) {
				adaptive := runPath(t, spec, shards, func(*sim.Sharded) {})
				inline := runPath(t, spec, shards, func(s *sim.Sharded) { s.ForceWindowPath(false) })
				fanout := runPath(t, spec, shards, func(s *sim.Sharded) { s.ForceWindowPath(true) })
				if inline.windows.FannedOut != 0 || fanout.windows.Inline != 0 {
					t.Fatalf("the hook did not force the paths: inline run %+v, fan-out run %+v", inline.windows, fanout.windows)
				}
				for name, got := range map[string]pathResult{"inline": inline, "fan-out": fanout} {
					if got.events != adaptive.events || got.windows.Events != adaptive.windows.Events ||
						got.windows.Total() != adaptive.windows.Total() {
						t.Errorf("forced %s: %d events in %d windows, adaptive %d in %d",
							name, got.events, got.windows.Total(), adaptive.events, adaptive.windows.Total())
					}
					if !slices.Equal(got.digests, adaptive.digests) {
						t.Errorf("forced %s: application digests differ from the adaptive run's", name)
					}
					if !slices.Equal(got.lanes, adaptive.lanes) {
						t.Errorf("forced %s: per-process trace lanes differ from the adaptive run's", name)
					}
					if !slices.Equal(got.records, adaptive.records) || !bytes.Equal(got.timeline, adaptive.timeline) {
						t.Errorf("forced %s: output ledger or timeline export differs from the adaptive run's", name)
					}
				}
				t.Logf("adaptive: %+v", adaptive.windows)
			})
		}
	}
}

// TestSparseRunStaysInline reads the decision back from the runtime: the
// fanout shape at n=64 on 2 shards holds a handful of events per window, so
// more than nine windows in ten must run inline (TestDenseWindowsFanOut pins
// the other side of the rule).
func TestSparseRunStaysInline(t *testing.T) {
	w := runPath(t, pathSpecs[1], 2, func(*sim.Sharded) {}).windows
	t.Logf("%+v, %.1f events/window", w, float64(w.Events)/float64(w.Total()))
	if w.Inline*10 <= w.Total()*9 {
		t.Errorf("%d of %d windows ran inline, want more than 90%%", w.Inline, w.Total())
	}
}
