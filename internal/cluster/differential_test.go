package cluster

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/traffic"
	"rollrec/internal/workload"
)

// diffSpec is one scenario of TestShardCountChangesNothing.
type diffSpec struct {
	name    string
	cfg     Config
	plan    failure.Plan
	horizon time.Duration
	// traffic, if non-nil, attaches an open-loop engine: every arrival is an
	// At callback on the coordinator.
	traffic *workload.Traffic
	// sample > 0 attaches a timeline collector at that interval.
	sample time.Duration
}

// diffOutcome is everything a run shows an observer.
type diffOutcome struct {
	events        int64
	digests       []uint64
	lanes         []uint64 // per-process trace fingerprints
	records       []output.Record
	timeline      []byte
	offered, shed int64
}

func (s diffSpec) run(t *testing.T, shards int) diffOutcome {
	t.Helper()
	lt := newLaneTracer(s.cfg.N)
	cfg := s.cfg
	cfg.Shards, cfg.Tracer = shards, lt
	c := New(cfg)
	var col *timeline.Collector
	if s.sample > 0 {
		tc := timeline.Config{Interval: s.sample, N: cfg.N, Label: s.name}
		if s.traffic != nil {
			tc.Tiers = s.traffic.TierSizes()
		}
		col = timeline.New(tc)
		c.AttachTimeline(col)
	}
	c.ApplyPlan(s.plan)
	var eng *traffic.Engine
	if s.traffic != nil {
		eng = traffic.NewEngine(*s.traffic, cfg.Seed)
		eng.Attach(traffic.Host{At: c.K.At, Inject: c.Inject}, s.horizon)
	}
	out := diffOutcome{events: c.K.Run(s.horizon)}
	mustCheck(t, c)
	out.digests = c.Digests()
	for _, l := range lt.lanes {
		out.lanes = append(out.lanes, l.h, l.seq)
	}
	out.records = c.Outputs().Records()
	if col != nil {
		var buf bytes.Buffer
		if err := col.Export().Encode(&buf); err != nil {
			t.Fatal(err)
		}
		out.timeline = buf.Bytes()
	}
	if eng != nil {
		out.offered, out.shed = eng.Offered(), eng.Shed()
	}
	return out
}

// TestShardCountChangesNothing is the one-kernel proof obligation: every way
// of observing a run — event total, per-process application digests and trace
// lanes, the invariant checker, the output ledger, the sampled timeline, the
// traffic engine's counters — reads the same on 1, 2 and 4 shards, for every
// family and every harness feature. CI runs it under -race and -cpu 1,4.
func TestShardCountChangesNothing(t *testing.T) {
	harnessLoad := workload.Traffic{
		Clients: 1, Frontends: 1, Backends: 2, FanOut: 2,
		Load: 400, WorkPerHop: int64(100 * time.Microsecond), PayloadPad: 64,
	}
	harnessHW := fastHW()
	harnessHW.CPUMsgCost = 50 * time.Microsecond
	harnessHW.CPUByteCost = 0

	var specs []diffSpec
	for _, fam := range []Family{FamilyFBL, FamilyCoordinated, FamilyOptimistic} {
		// The golden scenario: gossip, the second crash inside the first
		// recovery; nothing attached.
		gossip := goldenConfig(nil)
		gossip.Family = fam
		specs = append(specs, diffSpec{
			name: string(fam) + "/gossip", cfg: gossip, plan: goldenPlan(), horizon: goldenHorizon,
		})
		// The whole harness at once (TestFamiliesUnderOneHarness): ledger,
		// traffic, sampler, a backend crash.
		specs = append(specs, diffSpec{
			name: string(fam) + "/harness",
			cfg: Config{
				Family: fam, N: harnessLoad.N(), F: 1, Seed: 7, HW: harnessHW,
				Style: recovery.NonBlocking, App: traffic.NewApp(harnessLoad),
				CheckpointEvery: 500 * time.Millisecond, StatePad: 1 << 20, TrackOutputs: true,
			},
			plan:    failure.Plan{{At: 2 * time.Second, Proc: 3}},
			horizon: 6 * time.Second,
			traffic: &harnessLoad,
			sample:  100 * time.Millisecond,
		})
	}
	outputs := ringConfig(recovery.Blocking, 3)
	outputs.App = workload.NewClientServer(40, 64, int64(100*time.Microsecond))
	outputs.TrackOutputs = true
	fanout := goldenConfig(nil)
	fanout.N, fanout.Fanout, fanout.StatePad = 32, 4, 1<<12
	fanout.App = workload.NewRandomPeer(1, 40, 64, int64(10*time.Millisecond))
	specs = append(specs,
		diffSpec{ // TrackOutputs alone, closed-loop, blocking style
			name: "outputs", cfg: outputs,
			plan: failure.Plan{{At: 700 * time.Millisecond, Proc: 0}}, horizon: 8 * time.Second,
		},
		diffSpec{ // Traffic (At) with outputs: TestOutputsGoldenTraceHash's cell
			name: "traffic", cfg: outputsGoldenConfig(), plan: outputsGoldenPlan(),
			horizon: outputsGoldenHorizon, traffic: &outputsGoldenLoad,
		},
		diffSpec{ // the sampler alone, on the golden run
			name: "sampled", cfg: goldenConfig(nil), plan: goldenPlan(), horizon: goldenHorizon,
			sample: 100 * time.Millisecond,
		},
		diffSpec{ // the protocol mode the big cells run, sampled
			name: "fanout32", cfg: fanout,
			plan: failure.Plan{{At: 300 * time.Millisecond, Proc: 1}}, horizon: 6 * time.Second,
			sample: 250 * time.Millisecond,
		},
	)

	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			one := spec.run(t, 1)
			if spec.cfg.TrackOutputs && len(one.records) == 0 {
				t.Fatal("idle cell: no outputs requested")
			}
			if spec.traffic != nil && one.offered == 0 {
				t.Fatal("idle cell: no arrivals offered")
			}
			if spec.sample > 0 && len(one.timeline) == 0 {
				t.Fatal("empty timeline export")
			}
			for _, shards := range []int{2, 4} {
				got := spec.run(t, shards)
				if got.events != one.events {
					t.Errorf("shards=%d: %d events, 1 shard %d", shards, got.events, one.events)
				}
				if !slices.Equal(got.digests, one.digests) {
					t.Errorf("shards=%d: application digests differ from 1 shard's", shards)
				}
				if !slices.Equal(got.lanes, one.lanes) {
					t.Errorf("shards=%d: per-process trace lanes differ from 1 shard's", shards)
				}
				if !slices.Equal(got.records, one.records) {
					t.Errorf("shards=%d: output ledger differs from 1 shard's (%d vs %d records)",
						shards, len(got.records), len(one.records))
				}
				if !bytes.Equal(got.timeline, one.timeline) {
					t.Errorf("shards=%d: timeline export differs from 1 shard's", shards)
				}
				if got.offered != one.offered || got.shed != one.shed {
					t.Errorf("shards=%d: traffic %d offered / %d shed, 1 shard %d / %d",
						shards, got.offered, got.shed, one.offered, one.shed)
				}
			}
			t.Logf("%d events, %d outputs, %d timeline bytes, %d arrivals",
				one.events, len(one.records), len(one.timeline), one.offered)
		})
	}
}
