package sim

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
)

// pingProc is a toy process: on boot, process 0 sends a ping to 1; every
// receiver bounces the payload back, counting rounds, until maxRounds.
type pingProc struct {
	env    node.Env
	rounds int
	max    int
	boots  int
	log    []string
}

func (p *pingProc) Boot(env node.Env, restart bool) {
	p.env = env
	p.boots++
	if env.ID() == 0 && !restart {
		env.Send(1, &wire.Envelope{Kind: wire.KindApp, FromInc: 1, SSN: 1, Payload: []byte("ping")})
	}
}

func (p *pingProc) Deliver(e *wire.Envelope) {
	p.rounds++
	if p.rounds >= p.max {
		return
	}
	p.env.Send(e.From, &wire.Envelope{Kind: wire.KindApp, FromInc: 1, SSN: e.SSN + 1, Payload: e.Payload})
}

func hwFast() node.Hardware {
	hw := node.Profile1995()
	hw.Net.Latency = time.Millisecond
	hw.Net.Bandwidth = 0
	hw.CPUMsgCost = 0
	hw.CPUByteCost = 0
	return hw
}

func newPingKernel(t *testing.T, maxRounds int) (*Kernel, map[ids.ProcID]*pingProc, map[ids.ProcID]int) {
	t.Helper()
	k := New(Config{Seed: 42, HW: hwFast()})
	procs := make(map[ids.ProcID]*pingProc)
	boots := make(map[ids.ProcID]int)
	for _, id := range []ids.ProcID{0, 1} {
		id := id
		k.AddNode(id, func() node.Process {
			p := &pingProc{max: maxRounds}
			procs[id] = p
			boots[id]++
			return p
		})
	}
	k.Boot()
	return k, procs, boots
}

func TestPingPongProgress(t *testing.T) {
	k, procs, _ := newPingKernel(t, 10)
	k.Run(100 * time.Millisecond)
	// max is per process: the bouncing stops once each side has delivered
	// its quota, so the total settles at 2*max - 1.
	total := procs[0].rounds + procs[1].rounds
	if total != 19 {
		t.Fatalf("total rounds = %d, want 19", total)
	}
	if k.Now() != int64(100*time.Millisecond) {
		t.Fatalf("clock = %d, want exactly the horizon", k.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		k, _, _ := newPingKernel(t, 50)
		k.Run(time.Second)
		return k.Metrics(0).MsgsSent[uint8(wire.KindApp)], k.Net().Bytes
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Fatalf("two identical runs diverged: (%d,%d) vs (%d,%d)", m1, b1, m2, b2)
	}
}

func TestLatencyIsCharged(t *testing.T) {
	k, procs, _ := newPingKernel(t, 3)
	// 3 rounds at 1 ms per hop: first delivery at 1 ms, second at 2 ms,
	// third at 3 ms.
	k.Run(2500 * time.Microsecond)
	if got := procs[0].rounds + procs[1].rounds; got != 2 {
		t.Fatalf("rounds at 2.5ms = %d, want 2", got)
	}
	k.Run(10 * time.Millisecond)
	if got := procs[0].rounds + procs[1].rounds; got != 5 {
		t.Fatalf("rounds at 10ms = %d, want 5 (2*max-1)", got)
	}
}

func TestCrashDropsInFlightAndRestarts(t *testing.T) {
	k, _, boots := newPingKernel(t, 1000)
	k.CrashAt(5500*time.Microsecond, 1)
	k.Run(5600 * time.Microsecond)
	if k.Up(1) {
		t.Fatal("node 1 must be down after crash")
	}
	if k.ProcOf(1) != nil {
		t.Fatal("crashed node must have no process instance")
	}
	// Frames sent to the dead node are dropped.
	k.Run(20 * time.Millisecond)
	if k.Metrics(1).Dropped == 0 {
		t.Fatal("frames to a dead node must be counted as dropped")
	}
	// Watchdog restart: 3s detect + 0.5s restart in the 1995 profile.
	k.Run(4 * time.Second)
	if !k.Up(1) {
		t.Fatal("node 1 must be restarted by the watchdog")
	}
	if boots[1] != 2 {
		t.Fatalf("boots = %d, want 2 (initial + restart)", boots[1])
	}
	tr := k.Metrics(1).CurrentRecovery()
	if tr == nil || tr.CrashedAt == 0 || tr.RestartedAt == 0 {
		t.Fatalf("recovery trace incomplete: %+v", tr)
	}
	if got := time.Duration(tr.RestartedAt - tr.CrashedAt); got != 3500*time.Millisecond {
		t.Fatalf("restart delay = %v, want 3.5s", got)
	}
}

func TestTimersDieWithCrash(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	fired := 0
	k.AddNode(0, func() node.Process { return &timerProc{fired: &fired} })
	k.Boot()
	k.CrashAt(time.Millisecond, 0)
	k.Run(10 * time.Second)
	// The boot-time timer (armed at t=0 for t=5ms) must not fire; the
	// restart instance arms a fresh one which must fire exactly once.
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1 (restart instance only)", fired)
	}
}

type timerProc struct {
	fired *int
}

func (p *timerProc) Boot(env node.Env, restart bool) {
	env.After(5*time.Millisecond, func() { *p.fired++ })
}
func (p *timerProc) Deliver(e *wire.Envelope) {}

func TestTimerStop(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	fired := false
	var tm node.Timer
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, _ bool) {
			tm = env.After(time.Millisecond, func() { fired = true })
		})
	})
	k.Boot()
	tm.Stop()
	k.Run(time.Second)
	if fired {
		t.Fatal("stopped timer must not fire")
	}
}

// bootFunc adapts a function to node.Process for tiny tests.
type bootFunc func(env node.Env, restart bool)

func (f bootFunc) Boot(env node.Env, restart bool) { f(env, restart) }
func (f bootFunc) Deliver(e *wire.Envelope)        {}

func TestStableStorageSurvivesCrash(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	var got []byte
	var gotOK bool
	boots := 0
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, restart bool) {
			boots++
			if !restart {
				env.WriteStable("cp", storage.Image{Data: []byte("state-7")}, nil)
			} else {
				env.ReadStable("cp", func(img storage.Image, ok bool) { got, gotOK = img.Data, ok })
			}
		})
	})
	k.Boot()
	k.CrashAt(time.Second, 0)
	k.Run(10 * time.Second)
	if !gotOK || string(got) != "state-7" {
		t.Fatalf("restart read = %q, %v; want checkpoint to survive crash", got, gotOK)
	}
	if boots != 2 {
		t.Fatalf("boots = %d", boots)
	}
}

func TestWriteInFlightIsLostOnCrash(t *testing.T) {
	hw := hwFast()
	hw.Disk.Latency = 100 * time.Millisecond
	k := New(Config{Seed: 1, HW: hw})
	var found bool
	var checked bool
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, restart bool) {
			if !restart {
				env.WriteStable("cp", storage.Image{Data: []byte("never-durable"), Pad: 1 << 10}, nil)
			} else {
				env.ReadStable("cp", func(_ storage.Image, ok bool) { found, checked = ok, true })
			}
		})
	})
	k.Boot()
	// Crash at 50ms: before the 100ms write latency elapses.
	k.CrashAt(50*time.Millisecond, 0)
	k.Run(20 * time.Second)
	if !checked {
		t.Fatal("restart never read storage")
	}
	if found {
		t.Fatal("a write still in flight at crash time must be lost")
	}
}

func TestStorageLatencyCharged(t *testing.T) {
	hw := hwFast()
	hw.Disk.Latency = 10 * time.Millisecond
	hw.Disk.ReadBandwidth = 1e6 // 1 MB/s
	k := New(Config{Seed: 1, HW: hw})
	var doneAt int64 = -1
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, _ bool) {
			env.WriteStable("k", storage.Image{Data: make([]byte, 1_000), Pad: 9_000}, func() {
				env.ReadStable("k", func(_ storage.Image, _ bool) { doneAt = env.Now() })
			})
		})
	})
	k.Boot()
	k.Run(time.Second)
	// Write: 10ms latency (infinite write bw in hwFast? no: Disk1995 write bw
	// was overridden only partially) — just assert the read leg: >= write
	// completion + 10ms + 10ms transfer.
	if doneAt < int64(30*time.Millisecond) {
		t.Fatalf("storage ops completed too fast: %v", time.Duration(doneAt))
	}
	met := k.Metrics(0)
	if met.StorageWrites != 1 || met.StorageReads != 1 {
		t.Fatalf("storage op counters: %d writes %d reads", met.StorageWrites, met.StorageReads)
	}
	if met.StorageWriteBytes != 10_000 || met.StorageReadBytes != 10_000 {
		t.Fatalf("storage byte counters: %d written %d read; want the logical 10000 (padding counts)",
			met.StorageWriteBytes, met.StorageReadBytes)
	}
}

func TestBusyDefersDelivery(t *testing.T) {
	hw := hwFast()
	k := New(Config{Seed: 1, HW: hw})
	var deliveredAt []int64
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, _ bool) {
			env.Send(1, &wire.Envelope{Kind: wire.KindApp, FromInc: 1, SSN: 1})
			env.Send(1, &wire.Envelope{Kind: wire.KindApp, FromInc: 1, SSN: 2})
		})
	})
	k.AddNode(1, func() node.Process {
		return &busyProc{at: &deliveredAt}
	})
	k.Boot()
	k.Run(time.Second)
	if len(deliveredAt) != 2 {
		t.Fatalf("delivered %d, want 2", len(deliveredAt))
	}
	// First delivery at 1ms charges 20ms of Busy; the second frame also
	// arrives ~1ms but must wait until the receiver is free.
	if got := time.Duration(deliveredAt[1] - deliveredAt[0]); got < 20*time.Millisecond {
		t.Fatalf("second delivery only %v after first; Busy must defer it", got)
	}
}

type busyProc struct {
	env node.Env
	at  *[]int64
}

func (p *busyProc) Boot(env node.Env, _ bool) { p.env = env }
func (p *busyProc) Deliver(e *wire.Envelope) {
	*p.at = append(*p.at, p.env.Now())
	p.env.Busy(20 * time.Millisecond)
}

func TestSelfSendPanics(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, _ bool) {
			defer func() {
				if recover() == nil {
					panic("expected panic on self-send")
				}
			}()
			env.Send(0, &wire.Envelope{Kind: wire.KindApp, FromInc: 1})
		})
	})
	k.Boot()
}

func TestCrashStorageNodePanics(t *testing.T) {
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(ids.StorageProc, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	k.Boot()
	defer func() {
		if recover() == nil {
			t.Fatal("crashing the storage pseudo-process must panic")
		}
	}()
	k.Crash(ids.StorageProc)
}
