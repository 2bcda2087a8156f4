package explore

import (
	"time"

	"rollrec/internal/experiments"
	"rollrec/internal/failure"
	"rollrec/internal/node"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// exploreHW is the accelerated hardware profile every exploration runs on:
// era-1995 cost ratios with detection/restart latencies compressed so a
// full crash-recovery cycle fits in a couple of virtual seconds — the same
// compression the coord/optimistic test harnesses use. All branches of one
// exploration share it, so cross-branch comparisons stay apples-to-apples.
func exploreHW() node.Hardware {
	hw := node.Profile1995()
	hw.WatchdogDetect = 300 * time.Millisecond
	hw.RestartDelay = 50 * time.Millisecond
	hw.SuspectAfter = 400 * time.Millisecond
	hw.HeartbeatEvery = 50 * time.Millisecond
	hw.CPUMsgCost = 50 * time.Microsecond
	hw.CPUByteCost = 0
	hw.Disk.Latency = 2 * time.Millisecond
	hw.Disk.ReadBandwidth = 50e6
	hw.Disk.WriteBandwidth = 50e6
	return hw
}

// maxRecorded bounds the tracer's memory on pathological branches.
const maxRecorded = 1 << 16

// decisionTracer derives decision points from the structured trace stream:
// application-relevant frame receipts (anything but heartbeats), checkpoint
// captures, and stable-storage writes become crash candidates; recovery-
// phase transitions (restore, announce, gather, replay, restart) are
// recorded separately so a second crash can be aimed *inside* an
// in-progress recovery. The step index is read from the kernel mid-
// dispatch, which names the boundary immediately after the observed event.
type decisionTracer struct {
	steps      func() int64 // kernel step counter; wired after kernel build
	pointLimit int64        // only events at/before this virtual time become candidates
	wantPoints bool         // the probe run: only its points are ever read
	points     []int64      // decision points: step boundaries right after a pivotal event
	recSteps   []int64
}

var _ trace.Tracer = (*decisionTracer)(nil)

func (d *decisionTracer) Enabled() bool { return true }

func (d *decisionTracer) mark(ts int64) {
	if !d.wantPoints || d.steps == nil || ts > d.pointLimit || len(d.points) >= maxRecorded {
		return
	}
	d.points = append(d.points, d.steps())
}

func (d *decisionTracer) markRec(ts int64) {
	if d.steps == nil || ts > d.pointLimit || len(d.recSteps) >= maxRecorded {
		return
	}
	d.recSteps = append(d.recSteps, d.steps())
}

func (d *decisionTracer) Instant(ts int64, proc int32, name string, tag trace.Tag) {
	switch name {
	case trace.EvRecv:
		if tag.Kind == uint8(wire.KindHeartbeat) {
			return
		}
		d.mark(ts)
	case trace.EvAnnounce, trace.EvGatherAbort, trace.EvRestart:
		d.markRec(ts)
	}
}

func (d *decisionTracer) Begin(ts int64, proc int32, name string, tag trace.Tag) trace.SpanRef {
	switch name {
	case trace.EvCheckpoint:
		d.mark(ts)
	case trace.EvRestore, trace.EvWaiting, trace.EvGather, trace.EvReplay:
		d.markRec(ts)
	}
	return 0
}

func (d *decisionTracer) End(ref trace.SpanRef, ts int64) {}

func (d *decisionTracer) Span(ts, dur int64, proc int32, name string, tag trace.Tag) {
	if name == trace.EvStorageWrite {
		d.mark(ts)
	}
}

// scenario is the explorer's fixed per-family workload. Sizes are small
// enough that the bounded-exhaustive pass stays cheap, busy enough that
// decision points cover sends, commits, and storage traffic.
type scenario struct {
	app      func(n int) workload.Factory
	statePad int
	// stateFidelity marks that terminal digests must equal the crash-free
	// baseline's. Valid only when the workload is a single causal chain
	// (coordinated/optimistic ring): the FBL funnel's digest depends on the
	// cross-sender arrival interleaving, which message logging pins only
	// for deliveries that happened *before* the crash — post-crash
	// interleavings may legitimately differ from a crash-free execution,
	// so FBL relies on the protocol-level checks (orphans, exactly-once,
	// replay fidelity) instead.
	stateFidelity bool
}

func funnel(int) workload.Factory { return funnelFactory(5, 64, int64(200*time.Microsecond)) }

func ring(n int) workload.Factory {
	return ringFactory(uint64(8*n), 64, int64(500*time.Microsecond))
}

var scenarios = map[Family]scenario{
	FamilyFBL:         {app: funnel, statePad: 16 << 10},
	FamilyCoordinated: {app: ring, statePad: 8 << 10, stateFidelity: true},
	FamilyOptimistic:  {app: ring, statePad: 2 << 10, stateFidelity: true},
}

// build resets run (experiments.Result.Reset; a zero Result is a fresh
// build) to the spec's scenario with the plan applied — the family's
// workload on the explorer's hardware, with the returned decision tracer on
// the kernel's trace stream (marking decision points only if wantPoints) and
// output tracking on, so Check also reports output-commit conflicts. A spec
// or plan experiments.Spec.Validate refuses is an error.
func build(run *experiments.Result, spec Spec, plan failure.Plan, wantPoints bool) (*decisionTracer, error) {
	sc := scenarios[spec.Family]
	tr := &decisionTracer{
		pointLimit: int64(spec.Horizon - spec.SettleSlack),
		wantPoints: wantPoints,
	}
	err := run.Reset(experiments.Spec{
		Family:       spec.Family,
		N:            spec.N,
		F:            spec.F,
		Style:        spec.Style,
		Seed:         spec.Seed,
		HW:           exploreHW(),
		App:          sc.app(spec.N),
		CPEvery:      spec.CheckpointEvery,
		Pad:          sc.statePad,
		Crashes:      plan,
		Horizon:      spec.Horizon,
		TrackOutputs: true,
	}, tr)
	if err != nil {
		return nil, err
	}
	tr.steps = run.C.Kernel().Steps
	return tr, nil
}
