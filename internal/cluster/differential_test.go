package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
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
	// partition, if non-nil, cuts and heals links through At callbacks.
	partition func(*Cluster)
}

// lossy reports whether the spec's network loses frames: a cell that does
// must lose at least one.
func (s diffSpec) lossy() bool { return s.partition != nil || s.cfg.HW.Net.DropRate > 0 }

// diffOutcome is everything a run shows an observer.
type diffOutcome struct {
	events        int64
	digests       []uint64
	lanes         []uint64 // per-process trace fingerprints
	counters      []int64  // per process: Rejected, Rollbacks, LostDeliveries, Lost
	lost          int64    // frames lost on the network, all senders
	recovered     int      // recoveries that completed, all processes
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
	if s.partition != nil {
		s.partition(c)
	}
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
	for i := 0; i < cfg.N; i++ {
		m := c.Metrics(ids.ProcID(i))
		if m.Rejected != 0 {
			t.Errorf("shards=%d: p%d rejected %d payloads or frames", shards, i, m.Rejected)
		}
		out.counters = append(out.counters, m.Rejected, m.Rollbacks, m.LostDeliveries, m.Lost)
		out.lost += m.Lost
		for _, r := range m.Recoveries {
			if r.ReplayedAt != 0 {
				out.recovered++
			}
		}
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
// of observing a run — event total, per-process application digests, trace
// lanes and rejected / lost-work / lost-frame counters, the invariant
// checker, the output ledger, the sampled timeline, the traffic engine's
// counters — reads the same on 1, 2 and 4 shards, for every family, every
// harness feature and every network fault, and no process rejects anything.
// CI runs it under -race and -cpu 1,4.
func TestShardCountChangesNothing(t *testing.T) {
	for _, spec := range diffSpecs() {
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
			if spec.lossy() && (one.lost == 0 || one.recovered != len(spec.plan)) {
				t.Fatalf("lossy cell: %d frames lost, %d of %d recoveries complete", one.lost, one.recovered, len(spec.plan))
			}
			for _, shards := range []int{2, 4} {
				spec.run(t, shards).mustEqual(t, fmt.Sprintf("shards=%d", shards), one)
			}
			t.Logf("%d events, %d outputs, %d timeline bytes, %d arrivals, %d frames lost",
				one.events, len(one.records), len(one.timeline), one.offered, one.lost)
		})
	}
}

// TestPoisonedFramesChangeNothing runs the same cells with every frame buffer
// poisoned as its kernel takes it back (sim.TestingPoisonFrames): each reads
// on 1, 2 and 4 shards exactly as its unpoisoned one-shard run, so nothing
// reads a payload after its Deliver returned — in the out-of-order hold,
// the deferred and future-epoch buffers, the optimistic log, coord's
// recorded channel state — without the copy Keep makes.
//
// Not parallel: the hook is package-global. It is set after the unpoisoned
// runs and cleared once the parallel cells have finished.
func TestPoisonedFramesChangeNothing(t *testing.T) {
	specs := diffSpecs()
	want := make([]diffOutcome, len(specs))
	for i, spec := range specs {
		want[i] = spec.run(t, 1)
	}
	sim.TestingPoisonFrames = true
	t.Cleanup(func() { sim.TestingPoisonFrames = false })
	for i, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			for _, shards := range []int{1, 2, 4} {
				spec.run(t, shards).mustEqual(t, fmt.Sprintf("poisoned, shards=%d", shards), want[i])
			}
		})
	}
}

// mustEqual fails t, naming the run as `what`, where got reads differently
// from one.
func (got diffOutcome) mustEqual(t *testing.T, what string, one diffOutcome) {
	t.Helper()
	if got.events != one.events {
		t.Errorf("%s: %d events, 1 shard %d", what, got.events, one.events)
	}
	if !slices.Equal(got.digests, one.digests) {
		t.Errorf("%s: application digests differ from 1 shard's", what)
	}
	if !slices.Equal(got.lanes, one.lanes) {
		t.Errorf("%s: per-process trace lanes differ from 1 shard's", what)
	}
	if !slices.Equal(got.counters, one.counters) {
		t.Errorf("%s: rejected / lost-work / lost-frame counters %v, 1 shard %v", what, got.counters, one.counters)
	}
	if !slices.Equal(got.records, one.records) {
		t.Errorf("%s: output ledger differs from 1 shard's (%d vs %d records)",
			what, len(got.records), len(one.records))
	}
	if !bytes.Equal(got.timeline, one.timeline) {
		t.Errorf("%s: timeline export differs from 1 shard's", what)
	}
	if got.offered != one.offered || got.shed != one.shed {
		t.Errorf("%s: traffic %d offered / %d shed, 1 shard %d / %d",
			what, got.offered, got.shed, one.offered, one.shed)
	}
}

// diffSpecs are the cells of the differentials: every family on the golden
// scenario and under the whole harness, then outputs, traffic, the sampler,
// fanout mode and the network faults.
func diffSpecs() []diffSpec {
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
	// Network faults on the golden scenario. Jitter of up to 3L and 1 % drops
	// are drawn per link in send order; the partition cuts p0↔p1 for one
	// second, well under SuspectAfter, so nobody is falsely suspected.
	lossy := goldenConfig(nil)
	lossy.HW.Net.Jitter = 3 * lossy.HW.Net.Latency
	lossy.HW.Net.DropRate = 0.01
	cutOneLink := func(c *Cluster) {
		c.K.At(3*time.Second, func() { c.K.Cut(0, 1); c.K.Cut(1, 0) })
		c.K.At(4*time.Second, func() { c.K.Heal(0, 1); c.K.Heal(1, 0) })
	}
	specs = append(specs,
		diffSpec{name: "jitter+drops", cfg: lossy, plan: goldenPlan(), horizon: goldenHorizon},
		diffSpec{
			name: "partition", cfg: goldenConfig(nil), plan: goldenPlan(), horizon: goldenHorizon,
			partition: cutOneLink,
		},
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
	return specs
}
