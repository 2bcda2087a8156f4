package sim_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// loopEnv is a node.Env whose Multicast is the loop of Sends it replaced, and
// whose MulticastFrame decodes the frame it was handed and does the same.
type loopEnv struct{ node.Env }

func (e loopEnv) Multicast(dests []ids.ProcID, env *wire.Envelope) {
	for _, to := range dests {
		e.Send(to, env)
	}
}

func (e loopEnv) MulticastFrame(dests []ids.ProcID, _ wire.Kind, frame storage.Image) {
	var env wire.Envelope
	if err := new(wire.Decoder).Decode(&env, frame); err != nil {
		panic(err)
	}
	e.Multicast(dests, &env)
}

// loopProc boots the process it wraps on a loopEnv.
type loopProc struct{ node.Process }

func (p loopProc) Boot(env node.Env, restart bool) { p.Process.Boot(loopEnv{env}, restart) }

// multicastRun is what one run of the golden scenario leaves behind.
type multicastRun struct {
	events  int64
	lanes   []uint64 // per process: every trace event with its time, so send and arrival order
	digests []uint64
	met     []metrics.Proc
}

// runGoldenFBL runs the scenario of cluster's golden trace hash — four FBL
// processes, heartbeats and checkpoint notices to everyone, the second crash
// landing inside the first recovery — straight on the sharded runtime, with
// the processes' Multicast either the kernel's or a loop over its Send.
func runGoldenFBL(shards int, loop bool) multicastRun {
	const n = 4
	hw := node.Profile1995()
	lanes := newLaneHash(n)
	s := sim.NewSharded(sim.Config{Seed: 1, HW: hw, Tracer: lanes}, shards)
	factory := fbl.New(fbl.Params{
		F:               2,
		App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
		Style:           recovery.NonBlocking,
		CheckpointEvery: 4 * time.Second,
		StatePad:        1 << 20,
		HeartbeatEvery:  hw.HeartbeatEvery,
		SuspectAfter:    hw.SuspectAfter,
	})
	for i := 0; i < n; i++ {
		f := factory
		if loop {
			f = func(old node.Process) node.Process {
				kept, _ := old.(loopProc)
				return loopProc{factory(kept.Process)}
			}
		}
		s.AddSlot(ids.ProcID(i), f)
	}
	s.CrashAt(6*time.Second, 1)
	s.CrashAt(8*time.Second, 2)
	s.Boot()
	res := multicastRun{events: s.Run(18 * time.Second), lanes: lanes.lanes}
	for i := 0; i < n; i++ {
		p := s.ProcOf(ids.ProcID(i))
		if lp, ok := p.(loopProc); ok {
			p = lp.Process
		}
		res.digests = append(res.digests, p.(*fbl.Process).App().Digest())
		res.met = append(res.met, *s.Metrics(ids.ProcID(i)))
	}
	return res
}

// TestMulticastIsSendInALoop is the contract of Multicast and MulticastFrame
// (node.Env): encoding once per call, or once per incarnation as the heartbeat
// does, changes nothing a process, a counter or a trace can see. The golden
// scenario run with the kernel's two multicasts and with a loop over Send —
// one encode per tick and destination — agrees on the event count, every
// per-kind message and byte counter, every process's trace lane (send instants
// and arrival order included) and the application digests, at 1, 2 and 4
// shards.
func TestMulticastIsSendInALoop(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, want := runGoldenFBL(shards, false), runGoldenFBL(shards, true)
			if got.events != want.events {
				t.Errorf("%d events with Multicast, %d with a Send loop", got.events, want.events)
			}
			if !slices.Equal(got.lanes, want.lanes) {
				t.Errorf("per-process trace lanes differ:\n multicast %x\n send loop %x", got.lanes, want.lanes)
			}
			if !slices.Equal(got.digests, want.digests) {
				t.Errorf("application digests differ: %x vs %x", got.digests, want.digests)
			}
			var frames int64
			for i := range got.met {
				g, w := &got.met[i], &want.met[i]
				if g.MsgsSent != w.MsgsSent || g.BytesSent != w.BytesSent || g.MsgsRecv != w.MsgsRecv || g.BytesRecv != w.BytesRecv {
					t.Errorf("p%d: per-kind counters differ:\n multicast sent %v / %v B, received %v / %v B\n send loop sent %v / %v B, received %v / %v B",
						i, g.MsgsSent, g.BytesSent, g.MsgsRecv, g.BytesRecv, w.MsgsSent, w.BytesSent, w.MsgsRecv, w.BytesRecv)
				}
				if g.Dropped != w.Dropped || g.Delivered != w.Delivered || g.Duplicate != w.Duplicate {
					t.Errorf("p%d: dropped/delivered/duplicate %d/%d/%d vs %d/%d/%d",
						i, g.Dropped, g.Delivered, g.Duplicate, w.Dropped, w.Delivered, w.Duplicate)
				}
				frames += min(g.MsgsSent[wire.KindHeartbeat], g.MsgsSent[wire.KindCheckpointNotice])
			}
			if frames == 0 || len(got.met[1].Recoveries) == 0 || len(got.met[2].Recoveries) == 0 {
				t.Fatalf("idle scenario: %d heartbeats and notices multicast, recoveries %d and %d",
					frames, len(got.met[1].Recoveries), len(got.met[2].Recoveries))
			}
		})
	}
}
