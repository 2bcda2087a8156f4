package cluster

import (
	"fmt"
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// slowRing keeps the token circulating for several virtual seconds so
// crashes land mid-computation.
func slowRingConfig(style recovery.Style, seed int64, n, f int) Config {
	return Config{
		N:               n,
		F:               f,
		Seed:            seed,
		HW:              fastHW(),
		Style:           style,
		App:             workload.NewTokenRing(2000, 64, int64(2*time.Millisecond)),
		CheckpointEvery: 400 * time.Millisecond,
		StatePad:        4 << 10,
	}
}

func settle(t *testing.T, c *Cluster, horizon time.Duration) {
	t.Helper()
	if !c.RunUntilDone(time.Second, horizon) {
		for i := 0; i < 4; i++ {
			if p := c.Proc(ids.ProcID(i)); p != nil {
				t.Logf("p%d phase=%v rsn=%d", i, p.Phase(), p.RSN())
			} else {
				t.Logf("p%d down", i)
			}
		}
		t.Fatal("cluster did not settle before horizon")
	}
}

func TestMidComputationCrash(t *testing.T) {
	for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking, recovery.Manetho} {
		t.Run(style.String(), func(t *testing.T) {
			golden := New(slowRingConfig(recovery.NonBlocking, 21, 4, 2))
			settle(t, golden, 120*time.Second)

			c := New(slowRingConfig(style, 21, 4, 2))
			c.Crash(1500*time.Millisecond, 2) // token is mid-flight
			settle(t, c, 240*time.Second)
			mustCheck(t, c)
			g, got := golden.Digests(), c.Digests()
			for i := range g {
				if g[i] != got[i] {
					t.Errorf("process %d digest %#x, want golden %#x", i, got[i], g[i])
				}
			}
		})
	}
}

func TestCrashTokenHolder(t *testing.T) {
	// Crash every process in turn at a moment it plausibly holds the token.
	for victim := ids.ProcID(0); victim < 4; victim++ {
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			golden := New(slowRingConfig(recovery.NonBlocking, 33, 4, 2))
			settle(t, golden, 120*time.Second)

			c := New(slowRingConfig(recovery.NonBlocking, 33, 4, 2))
			c.Crash(time.Second+time.Duration(victim)*2*time.Millisecond, victim)
			settle(t, c, 240*time.Second)
			mustCheck(t, c)
			g, got := golden.Digests(), c.Digests()
			for i := range g {
				if g[i] != got[i] {
					t.Errorf("process %d digest %#x, want golden %#x", i, got[i], g[i])
				}
			}
		})
	}
}

func TestOverlappingFailures(t *testing.T) {
	// A second process fails while the first is still recovering — the
	// paper's second experiment, and the scenario its new algorithm's
	// gather-restart (step 5 → goto 4) exists for.
	for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking} {
		t.Run(style.String(), func(t *testing.T) {
			golden := New(slowRingConfig(recovery.NonBlocking, 44, 4, 2))
			settle(t, golden, 120*time.Second)

			c := New(slowRingConfig(style, 44, 4, 2))
			c.Crash(1200*time.Millisecond, 1)
			// fastHW: watchdog 300ms + restart 50ms + restore ≈ 360ms, so
			// the gather is in flight around 1.6s; crash a live process.
			c.Crash(1600*time.Millisecond, 3)
			settle(t, c, 240*time.Second)
			mustCheck(t, c)
			g, got := golden.Digests(), c.Digests()
			for i := range g {
				if g[i] != got[i] {
					t.Errorf("process %d digest %#x, want golden %#x", i, got[i], g[i])
				}
			}
			// Both recoveries must have completed.
			for _, p := range []ids.ProcID{1, 3} {
				tr := c.Metrics(p).CurrentRecovery()
				if tr == nil || tr.ReplayedAt == 0 {
					t.Errorf("%v has no completed recovery trace", p)
				}
			}
		})
	}
}

// TestThirdFailureDuringTwoMemberGather: with f = 3, p3 and p4 recover
// together and live p5 dies while their gather waits on it. The leader's
// restarted round must collect depinfo again before it serves anyone: a
// round that kept the abandoned round's step-5 flag finished on the first
// member IncReply with no depinfo at all, and replay then panicked on
// conflicting determinants.
func TestThirdFailureDuringTwoMemberGather(t *testing.T) {
	for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking} {
		t.Run(style.String(), func(t *testing.T) {
			// The paper's gossip cell (experiments.PaperSpec) at f = 3.
			c := New(Config{
				N:               8,
				F:               3,
				Seed:            1,
				Style:           style,
				App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
				CheckpointEvery: 4 * time.Second,
				StatePad:        1 << 20,
			})
			c.Crash(10*time.Second, 3)
			c.Crash(10*time.Second, 4)
			c.Crash(14100*time.Millisecond, 5)
			c.Run(45 * time.Second)
			mustCheck(t, c)
		})
	}
}

// replyWatch is a tracer that follows who answers a gather. A restarted
// process answers none before it announces: no DepReply leaves a process
// inside its restore span. Under the Blocking style a live process blocks
// for every gather it answers: no DepReply leaves a live process outside a
// blocked span, which a blocked flag left over from an earlier gather would
// let happen.
type replyWatch struct {
	trace.Nop
	spans    map[trace.SpanRef]watchSpan
	in       map[watchSpan]bool // the spans open now
	next     trace.SpanRef
	reached  int      // depinfo requests delivered to a restoring process
	live     int      // depinfo replies sent by live processes
	restored []string // replies sent while restoring
	unblock  []string // live replies sent unblocked
}

type watchSpan struct {
	proc int32
	name string
}

func newReplyWatch() *replyWatch {
	return &replyWatch{spans: map[trace.SpanRef]watchSpan{}, in: map[watchSpan]bool{}}
}

func (w *replyWatch) Enabled() bool { return true }

func (w *replyWatch) Begin(ts int64, proc int32, name string, tag trace.Tag) trace.SpanRef {
	w.next++
	w.spans[w.next] = watchSpan{proc, name}
	w.in[watchSpan{proc, name}] = true
	return w.next
}

func (w *replyWatch) End(ref trace.SpanRef, ts int64) {
	delete(w.in, w.spans[ref])
	delete(w.spans, ref)
}

func (w *replyWatch) Instant(ts int64, proc int32, name string, tag trace.Tag) {
	restoring := w.in[watchSpan{proc, trace.EvRestore}]
	switch {
	case name == trace.EvCrash:
		for s := range w.in {
			if s.proc == proc {
				delete(w.in, s)
			}
		}
	case name == trace.EvRecv && tag.Kind == uint8(wire.KindDepRequest) && restoring:
		w.reached++
	case name == trace.EvSend && tag.Kind == uint8(wire.KindDepReply) && restoring:
		w.restored = append(w.restored, fmt.Sprintf("p%d at %v", proc, time.Duration(ts)))
	case name == trace.EvSend && tag.Kind == uint8(wire.KindDepReply) && !w.in[watchSpan{proc, trace.EvReplay}]:
		w.live++
		if !w.in[watchSpan{proc, trace.EvBlocked}] {
			w.unblock = append(w.unblock, fmt.Sprintf("p%d at %v", proc, time.Duration(ts)))
		}
	}
}

// TestDepRequestWhileRestoringWaits: p3 crashes at 10 s and p5 at 10.3 s,
// so p5 is still reading its 1 MiB checkpoint when p3, restored first,
// gathers. p5 has not announced, and answering p3 from the live path would
// hand the leader an empty log in its place. Its control frames wait until
// it announces; then p3 folds it into the round. p1's crash at 25 s is the
// next gather: every live process must block for it under the Blocking
// style.
func TestDepRequestWhileRestoringWaits(t *testing.T) {
	for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking} {
		t.Run(style.String(), func(t *testing.T) {
			w := newReplyWatch()
			c := New(Config{
				N:               8,
				F:               2,
				Seed:            1,
				Style:           style,
				App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
				CheckpointEvery: 4 * time.Second,
				StatePad:        1 << 20,
				Tracer:          w,
			})
			c.Crash(10*time.Second, 3)
			c.Crash(10300*time.Millisecond, 5)
			c.Crash(25*time.Second, 1)
			c.Run(45 * time.Second)
			mustCheck(t, c)
			if w.reached == 0 {
				t.Fatal("no depinfo request reached a restoring process: the scenario misses the window")
			}
			if len(w.restored) > 0 {
				t.Errorf("%d depinfo replies sent while restoring: %v", len(w.restored), w.restored)
			}
			if style == recovery.Blocking {
				if w.live == 0 {
					t.Fatal("no live process answered a gather")
				}
				if len(w.unblock) > 0 {
					t.Errorf("%d of %d live replies sent unblocked: %v", len(w.unblock), w.live, w.unblock)
				}
			}
		})
	}
}

func TestSimultaneousFailures(t *testing.T) {
	golden := New(slowRingConfig(recovery.NonBlocking, 55, 4, 2))
	settle(t, golden, 120*time.Second)

	c := New(slowRingConfig(recovery.NonBlocking, 55, 4, 2))
	c.Crash(1300*time.Millisecond, 0)
	c.Crash(1300*time.Millisecond, 2)
	settle(t, c, 240*time.Second)
	mustCheck(t, c)
	g, got := golden.Digests(), c.Digests()
	for i := range g {
		if g[i] != got[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, got[i], g[i])
		}
	}
}

func TestManethoInstance(t *testing.T) {
	// f = n: determinants are stable only at the storage pseudo-process.
	cfg := slowRingConfig(recovery.NonBlocking, 66, 4, 4)
	golden := New(cfg)
	settle(t, golden, 120*time.Second)

	c := New(slowRingConfig(recovery.NonBlocking, 66, 4, 4))
	c.Crash(1500*time.Millisecond, 1)
	settle(t, c, 240*time.Second)
	mustCheck(t, c)
	g, got := golden.Digests(), c.Digests()
	for i := range g {
		if g[i] != got[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, got[i], g[i])
		}
	}
	// The storage process must have accumulated determinants.
	if c.Metrics(ids.StorageProc).MsgsRecv[3] == 0 { // KindDetsToStorage
		t.Error("storage pseudo-process never received determinants")
	}
}

func TestGossipWithCrashes(t *testing.T) {
	cfg := Config{
		N:               6,
		F:               2,
		Seed:            77,
		HW:              fastHW(),
		Style:           recovery.NonBlocking,
		App:             workload.NewRandomPeer(3, 400, 64, int64(time.Millisecond)),
		CheckpointEvery: 400 * time.Millisecond,
		StatePad:        4 << 10,
	}
	c := New(cfg)
	c.Crash(1200*time.Millisecond, 4)
	c.Crash(2500*time.Millisecond, 0)
	c.Run(30 * time.Second)
	mustCheck(t, c)
	var handled uint64
	for i := 0; i < 6; i++ {
		if a, ok := c.App(ids.ProcID(i)).(*workload.RandomPeer); ok {
			handled += a.Handled()
		}
	}
	if handled == 0 {
		t.Fatal("gossip made no progress")
	}
}

func TestClientServerWithServerCrash(t *testing.T) {
	cfg := Config{
		N:               5,
		F:               2,
		Seed:            88,
		HW:              fastHW(),
		Style:           recovery.NonBlocking,
		App:             workload.NewClientServer(300, 64, int64(time.Millisecond)),
		CheckpointEvery: 400 * time.Millisecond,
		StatePad:        4 << 10,
	}
	golden := New(cfg)
	settle(t, golden, 240*time.Second)
	goldenApplied := golden.App(0).(*workload.ClientServer).Applied()

	c := New(Config{
		N: 5, F: 2, Seed: 88, HW: fastHW(), Style: recovery.NonBlocking,
		App:             workload.NewClientServer(300, 64, int64(time.Millisecond)),
		CheckpointEvery: 400 * time.Millisecond,
		StatePad:        4 << 10,
	})
	c.Crash(1500*time.Millisecond, 0) // the server itself
	settle(t, c, 480*time.Second)
	mustCheck(t, c)
	if got := c.App(0).(*workload.ClientServer).Applied(); got != goldenApplied {
		t.Errorf("server applied %d requests, golden run applied %d", got, goldenApplied)
	}
}

func TestClientServerWithClientCrash(t *testing.T) {
	c := New(Config{
		N: 5, F: 2, Seed: 99, HW: fastHW(), Style: recovery.NonBlocking,
		App:             workload.NewClientServer(300, 64, int64(time.Millisecond)),
		CheckpointEvery: 400 * time.Millisecond,
		StatePad:        4 << 10,
	})
	c.Crash(1500*time.Millisecond, 2)
	settle(t, c, 480*time.Second)
	mustCheck(t, c)
	if got := c.App(0).(*workload.ClientServer).Applied(); got != 300*4 {
		t.Errorf("server applied %d, want %d", got, 300*4)
	}
}

// TestEightMegabyteImagesRestore: a process image past the 4 MiB a decoded
// list may claim still restores in every family. Its padding is modelled
// zeros, bounded by the image's own count, so a crash and a restore from an
// 8 MiB checkpoint, snapshot or log pass Check.
func TestEightMegabyteImagesRestore(t *testing.T) {
	for _, fam := range []Family{FamilyFBL, FamilyCoordinated, FamilyOptimistic} {
		t.Run(string(fam), func(t *testing.T) {
			c := New(Config{
				Family:          fam,
				N:               4,
				F:               1,
				Seed:            1,
				Style:           recovery.NonBlocking,
				App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
				CheckpointEvery: 10 * time.Second,
				StatePad:        8 << 20,
			})
			c.Crash(45*time.Second, 1)
			c.Run(90 * time.Second)
			mustCheck(t, c)
		})
	}
}
