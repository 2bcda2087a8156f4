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
// the receiver has collected come back, and when a waiting output is
// released is decided by code no other golden reaches (fbl.checkOutputs).
// The trace carries every send, delivery and output-commit span, so it
// moves with any of them; it is the same per-process lane fold as
// goldenTraceHash. The value must survive any refactor of the determinant
// log.
const outputsGoldenTraceHash uint64 = 0x33603a436a20bd67

// outputsGoldenLoad is the cell's traffic spec; the differential test reruns
// the cell across shard counts.
var outputsGoldenLoad = workload.Traffic{
	Clients: 2, Frontends: 2, Backends: 4, FanOut: 2,
	Load: 250, WorkPerHop: int64(500 * time.Microsecond), PayloadPad: 256,
}

const outputsGoldenHorizon = 6500 * time.Millisecond

func outputsGoldenConfig() Config {
	return Config{
		N: outputsGoldenLoad.N(), F: 1, Seed: 1, HW: node.Profile1995(),
		Style:           recovery.NonBlocking,
		App:             traffic.NewApp(outputsGoldenLoad),
		CheckpointEvery: 4 * time.Second,
		StatePad:        1 << 20,
		TrackOutputs:    true,
	}
}

func outputsGoldenPlan() failure.Plan {
	return failure.Plan{{At: time.Second, Proc: ids.ProcID(outputsGoldenLoad.N() - 1)}}
}

func TestOutputsGoldenTraceHash(t *testing.T) {
	lt := newLaneTracer(outputsGoldenLoad.N())
	cfg := outputsGoldenConfig()
	cfg.Tracer = lt
	c := New(cfg)
	c.ApplyPlan(outputsGoldenPlan())
	eng := traffic.NewEngine(outputsGoldenLoad, 1)
	eng.Attach(traffic.Host{At: c.K.At, Inject: c.Inject}, outputsGoldenHorizon)
	c.Run(outputsGoldenHorizon)
	mustCheck(t, c)
	if c.Outputs().Total() == 0 {
		t.Fatal("idle cell: no outputs requested")
	}
	h, n := lt.sum()
	t.Logf("lane fingerprint = %#x over %d trace events, %d outputs", h, n, c.Outputs().Total())
	if h != outputsGoldenTraceHash {
		t.Fatalf("lane fingerprint = %#x, want %#x: piggyback selection or output release "+
			"changed under output tracking; if intended, run `make regen`", h, outputsGoldenTraceHash)
	}
}
