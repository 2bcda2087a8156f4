package cluster

import (
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/traffic"
	"rollrec/internal/workload"
)

// outputsGoldenTraceHash pins the event schedule of an FBL run with output
// tracking on — the shape of D12's crash-under-load cell and of the
// benchmark's traffic_n8_crash: three tiers on 1995 hardware at the
// frontends' saturation knee, a backend crash, checkpoints every 4 s.
// goldenTraceHash cannot see this path: tracking changes what travels on
// the piggyback (stable entries keep going, DESIGN §10), so determinants
// the receiver has collected come back, and which of those are offered
// again, and when a waiting output is released, is decided by code no
// other golden reaches (fbl.unlessSent, fbl.checkOutputs). The trace
// carries every send, delivery and output-commit span, so it moves with
// any of them. The value was generated at the commit before the
// determinant log was rebuilt (PR 14) and must survive any refactor of it.
const outputsGoldenTraceHash uint64 = 0x7d0cbf679a014e8e

func TestOutputsGoldenTraceHash(t *testing.T) {
	load := workload.Traffic{
		Clients: 2, Frontends: 2, Backends: 4, FanOut: 2,
		Load: 250, WorkPerHop: int64(500 * time.Microsecond), PayloadPad: 256,
	}
	const horizon = 6500 * time.Millisecond
	tr := newHashTracer()
	c := New(Config{
		N: load.N(), F: 1, Seed: 1, HW: node.Profile1995(),
		Style:           recovery.NonBlocking,
		App:             traffic.NewApp(load),
		CheckpointEvery: 4 * time.Second,
		StatePad:        1 << 20,
		TrackOutputs:    true,
		Tracer:          tr,
	})
	c.ApplyPlan(failure.Plan{{At: time.Second, Proc: ids.ProcID(load.N() - 1)}})
	eng := traffic.NewEngine(load, 1)
	eng.Attach(traffic.Host{At: c.K.At, Inject: c.Inject}, horizon)
	c.Run(horizon)
	mustCheck(t, c)
	if c.Outputs().Total() == 0 {
		t.Fatal("idle cell: no outputs requested")
	}
	t.Logf("trace hash = %#x over %d trace events, %d outputs", tr.h, tr.seq, c.Outputs().Total())
	if tr.h != outputsGoldenTraceHash {
		t.Fatalf("event-trace hash = %#x, want %#x: piggyback selection or output release "+
			"changed under output tracking", tr.h, outputsGoldenTraceHash)
	}
}
