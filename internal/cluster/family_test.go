package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/traffic"
	"rollrec/internal/workload"
)

// TestFamiliesUnderOneHarness drives every family through the full harness
// at once — output ledger, timeline collector, open-loop traffic, crash
// plan. Each cell must pass Check, and two runs must agree on the
// application digests and the timeline export byte for byte.
func TestFamiliesUnderOneHarness(t *testing.T) {
	tr := workload.Traffic{
		Clients: 1, Frontends: 1, Backends: 2, FanOut: 2,
		Load: 400, WorkPerHop: int64(100 * time.Microsecond), PayloadPad: 64,
	}
	const (
		crashAt = 2 * time.Second
		horizon = 6 * time.Second
	)
	victim := ids.ProcID(tr.N() - 1) // a backend; the client must stay up
	hw := fastHW()
	hw.CPUMsgCost = 50 * time.Microsecond
	hw.CPUByteCost = 0

	type outcome struct {
		c        *Cluster
		eng      *traffic.Engine
		timeline []byte
	}
	run := func(t *testing.T, fam Family, crash bool) outcome {
		c := New(Config{
			Family: fam,
			N:      tr.N(),
			F:      1,
			Seed:   7,
			HW:     hw,
			Style:  recovery.NonBlocking,
			App:    traffic.NewApp(tr),
			// The ~1 MB image makes a rollback's restore read span several
			// arrival gaps, so a rolling-back client demonstrably sheds.
			CheckpointEvery: 500 * time.Millisecond,
			StatePad:        1 << 20,
			TrackOutputs:    true,
		})
		col := timeline.New(timeline.Config{
			Interval: 100 * time.Millisecond, N: tr.N(), Label: string(fam), Tiers: tr.TierSizes(),
		})
		c.AttachTimeline(col)
		if crash {
			c.ApplyPlan(failure.Plan{{At: crashAt, Proc: victim}})
		}
		eng := traffic.NewEngine(tr, 7)
		eng.Attach(traffic.Host{At: c.K.At, Inject: c.Inject}, horizon)
		c.Run(horizon)
		mustCheck(t, c)
		var buf bytes.Buffer
		if err := col.Export().Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return outcome{c, eng, buf.Bytes()}
	}

	for _, fam := range []Family{FamilyFBL, FamilyCoordinated, FamilyOptimistic} {
		for _, crash := range []bool{false, true} {
			fam, crash := fam, crash
			t.Run(fmt.Sprintf("%s/crash=%v", fam, crash), func(t *testing.T) {
				t.Parallel()
				a, b := run(t, fam, crash), run(t, fam, crash)
				if da, db := fmt.Sprint(a.c.Digests()), fmt.Sprint(b.c.Digests()); da != db {
					t.Errorf("digests differ across identical runs:\n%s\n%s", da, db)
				}
				if !bytes.Equal(a.timeline, b.timeline) {
					t.Error("timeline exports differ across identical runs")
				}
				if a.eng.Offered() == 0 || a.c.Outputs().Total() == 0 {
					t.Fatalf("idle cell: %d arrivals offered, %d outputs requested",
						a.eng.Offered(), a.c.Outputs().Total())
				}
				if !crash {
					if a.eng.Shed() != 0 {
						t.Errorf("failure-free run shed %d arrivals", a.eng.Shed())
					}
					return
				}
				if tr := a.c.Metrics(victim).CurrentRecovery(); tr == nil || tr.ReplayedAt == 0 {
					t.Fatal("victim never completed recovery")
				}
				if len(a.c.Metrics(0).Recoveries) != 0 {
					t.Fatal("the client crashed; shed accounting below would be meaningless")
				}
				client := a.c.LostWork(0)
				t.Logf("%d arrivals offered, %d shed; client lost work %+v", a.eng.Offered(), a.eng.Shed(), client)
				switch fam {
				case FamilyFBL:
					if client.Rollbacks != 0 || a.eng.Shed() != 0 {
						t.Errorf("FBL touched the live client: %+v, %d arrivals shed", client, a.eng.Shed())
					}
				case FamilyCoordinated:
					// The global rollback forces the live client through a
					// restore, and arrivals landing inside it are shed.
					if client.Rollbacks == 0 {
						t.Error("coordinated rollback never reached the client")
					}
					if a.eng.Shed() == 0 {
						t.Error("no arrival was shed while the client rolled back")
					}
				}
			})
		}
	}
}
