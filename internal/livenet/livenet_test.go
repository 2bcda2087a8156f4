package livenet

import (
	"sync/atomic"
	"testing"
	"time"

	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/netmodel"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// tinyHW keeps the wall-clock cost of live tests small.
func tinyHW() node.Hardware {
	return node.Hardware{
		Net:            netmodel.Params{Latency: time.Millisecond},
		Disk:           storage.Params{Latency: time.Millisecond},
		WatchdogDetect: 80 * time.Millisecond,
		RestartDelay:   20 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   150 * time.Millisecond,
	}
}

// echoProc counts deliveries and bounces payloads, for runtime-level tests.
type echoProc struct {
	env   node.Env
	count *atomic.Int64
	max   int64
}

func (p *echoProc) Boot(env node.Env, restart bool) {
	p.env = env
	if env.ID() == 0 && !restart {
		env.Send(1, &wire.Envelope{Kind: wire.KindApp, FromInc: 1, SSN: 1})
	}
}

func (p *echoProc) Deliver(e *wire.Envelope) {
	if p.count.Add(1) >= p.max {
		return
	}
	p.env.Send(e.From, &wire.Envelope{Kind: wire.KindApp, FromInc: 1, SSN: e.SSN + 1})
}

func TestEchoAcrossGoroutines(t *testing.T) {
	n := New(Config{HW: tinyHW(), Seed: 1})
	var count atomic.Int64
	for _, id := range []ids.ProcID{0, 1} {
		n.AddNode(id, func() node.Process { return &echoProc{count: &count, max: 20} })
	}
	n.Boot()
	deadline := time.Now().Add(5 * time.Second)
	for count.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	n.Close()
	if count.Load() < 20 {
		t.Fatalf("echo made %d deliveries, want >= 20", count.Load())
	}
}

func TestTimerAndStop(t *testing.T) {
	n := New(Config{HW: tinyHW(), Seed: 1})
	fired := make(chan struct{}, 2)
	var stop node.Timer
	n.AddNode(0, bootFactory(func(env node.Env, _ bool) {
		env.After(10*time.Millisecond, func() { fired <- struct{}{} })
		stop = env.After(10*time.Millisecond, func() { fired <- struct{}{} })
	}))
	n.Boot()
	stop.Stop()
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(100 * time.Millisecond):
	}
	n.Close()
}

type bootFn struct {
	fn func(env node.Env, restart bool)
}

func (b *bootFn) Boot(env node.Env, restart bool) { b.fn(env, restart) }
func (b *bootFn) Deliver(e *wire.Envelope)        {}

func bootFactory(fn func(env node.Env, restart bool)) node.Factory {
	return func() node.Process { return &bootFn{fn: fn} }
}

func TestStableStorageAcrossCrash(t *testing.T) {
	n := New(Config{HW: tinyHW(), Seed: 1})
	got := make(chan string, 1)
	n.AddNode(0, bootFactory(func(env node.Env, restart bool) {
		if !restart {
			env.WriteStable("k", storage.Image{Data: []byte("v1"), Pad: 64}, nil)
			return
		}
		env.ReadStable("k", func(img storage.Image, ok bool) {
			if ok && img.Pad == 64 {
				got <- string(img.Data)
			} else {
				got <- "<missing>"
			}
		})
	}))
	n.Boot()
	time.Sleep(50 * time.Millisecond) // let the write land
	n.Crash(0)
	select {
	case v := <-got:
		if v != "v1" {
			t.Fatalf("restart read %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("restart never read storage")
	}
	n.Close()
}

// TestFullProtocolOnLivenet runs the complete FBL stack — the same code the
// simulator runs — on real goroutines, crashes a process mid-computation,
// and waits for its recovery to complete.
func TestFullProtocolOnLivenet(t *testing.T) {
	hw := tinyHW()
	// Record a structured trace: every goroutine hits the shared Recorder,
	// which the race target uses to prove it is concurrency-safe.
	rec := trace.NewRecorder(1 << 14)
	n := New(Config{HW: hw, Seed: 42, Tracer: rec})
	par := fbl.Params{
		N:               3,
		F:               2,
		App:             workload.NewTokenRing(100000, 32, int64(200*time.Microsecond)),
		Style:           recovery.NonBlocking,
		CheckpointEvery: 100 * time.Millisecond,
		StatePad:        1 << 10,
		HeartbeatEvery:  hw.HeartbeatEvery,
		SuspectAfter:    hw.SuspectAfter,
		RetryEvery:      100 * time.Millisecond,
	}
	for i := 0; i < 3; i++ {
		n.AddNode(ids.ProcID(i), fbl.New(par))
	}
	n.Boot()
	time.Sleep(300 * time.Millisecond) // let the ring spin and checkpoint
	n.Crash(1)

	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		n.Inspect(1, func(p node.Process) {
			if fp, ok := p.(*fbl.Process); ok && fp.Mode() == fbl.ModeLive && fp.Incarnation() == 2 {
				recovered = true
			}
		})
		if recovered {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	n.Close()
	if !recovered {
		t.Fatal("process 1 never recovered on the live runtime")
	}
	tr := n.Metrics(1).CurrentRecovery()
	if tr == nil || tr.ReplayedAt == 0 {
		t.Fatal("no completed recovery trace")
	}
	// The structured trace must show the crash and a completed replay span.
	var sawCrash, sawReplay bool
	for _, e := range rec.Events() {
		if e.Proc == 1 && e.Name == trace.EvCrash {
			sawCrash = true
		}
		if e.Proc == 1 && e.Name == trace.EvReplay && e.Span && !e.Open {
			sawReplay = true
		}
	}
	if !sawCrash || !sawReplay {
		t.Fatalf("trace missing crash/replay events (crash=%v replay=%v)", sawCrash, sawReplay)
	}
}
