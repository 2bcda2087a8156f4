package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// TestFigure1Scenario reproduces the paper's running example: p (process 0)
// crashes after sending m'; its recovery must find m's receipt order in the
// volatile logs of q or r and replay to a state consistent with both.
func TestFigure1Scenario(t *testing.T) {
	mk := func(style recovery.Style) Config {
		return Config{
			N:               3,
			F:               2,
			Seed:            5,
			HW:              fastHW(),
			Style:           style,
			App:             workload.NewFigure1(800),
			CheckpointEvery: 400 * time.Millisecond,
			StatePad:        2 << 10,
		}
	}
	golden := New(mk(recovery.NonBlocking))
	settle(t, golden, 120*time.Second)

	for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking} {
		t.Run(style.String(), func(t *testing.T) {
			c := New(mk(style))
			c.Crash(700*time.Millisecond, 0) // p, mid-chain
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

// TestRandomCrashSchedules is the randomized property test: any crash
// schedule with at most f overlapping failures must preserve every
// invariant, for every style and the f = n instance.
func TestRandomCrashSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	styles := []recovery.Style{recovery.NonBlocking, recovery.Blocking, recovery.Manetho}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 3 + rng.Intn(4) // 3..6 processes
			f := 2
			if rng.Intn(4) == 0 {
				f = n // f = n instance
			}
			style := styles[rng.Intn(len(styles))]

			// Random schedule: 1..f crashes (when f=n, up to 2 to keep the
			// runtime modest), spread across the active window.
			maxCrashes := f
			if maxCrashes > 2 {
				maxCrashes = 2
			}
			var plan failure.Plan
			used := map[ids.ProcID]bool{}
			for i, k := 0, 1+rng.Intn(maxCrashes); i < k; i++ {
				v := ids.ProcID(rng.Intn(n))
				if used[v] {
					continue
				}
				used[v] = true
				at := time.Duration(500+rng.Intn(2500)) * time.Millisecond
				plan = append(plan, failure.Crash{At: at, Proc: v})
			}

			cfg := Config{
				N:               n,
				F:               f,
				Seed:            seed * 101,
				HW:              fastHW(),
				Style:           style,
				App:             workload.NewRandomPeer(2, 600, 32, int64(time.Millisecond)),
				CheckpointEvery: 400 * time.Millisecond,
				StatePad:        2 << 10,
			}
			c := New(cfg)
			c.ApplyPlan(plan)
			c.Run(30 * time.Second)
			t.Logf("n=%d f=%d style=%v crashes=%d", n, f, style, len(plan))
			for i := 0; i < n; i++ {
				if p := c.Proc(ids.ProcID(i)); p == nil || (p.Phase() != node.PhaseLive && p.Phase() != node.PhaseBlocked) {
					c.Run(60 * time.Second) // allow stragglers
					break
				}
			}
			mustCheck(t, c)
		})
	}
}

// TestSequentialCrashesBeyondF checks that more than f crashes are fine as
// long as they never overlap: recovery data re-replicates determinants to
// the recovered process, so the budget is about concurrency, not totals.
func TestSequentialCrashesBeyondF(t *testing.T) {
	golden := New(slowRingConfig(recovery.NonBlocking, 111, 4, 1))
	settle(t, golden, 120*time.Second)

	c := New(slowRingConfig(recovery.NonBlocking, 111, 4, 1))
	// f = 1, three crashes, each fully recovered (fastHW recovery ≈ 0.4 s)
	// before the next.
	c.Crash(1000*time.Millisecond, 0)
	c.Crash(2500*time.Millisecond, 2)
	c.Crash(4000*time.Millisecond, 3)
	settle(t, c, 240*time.Second)
	mustCheck(t, c)
	g, got := golden.Digests(), c.Digests()
	for i := range g {
		if g[i] != got[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, got[i], g[i])
		}
	}
}

// TestRepeatedCrashSameProcess crashes the same process twice; the second
// recovery must produce incarnation 3 and still converge.
func TestRepeatedCrashSameProcess(t *testing.T) {
	golden := New(slowRingConfig(recovery.NonBlocking, 121, 4, 2))
	settle(t, golden, 120*time.Second)

	c := New(slowRingConfig(recovery.NonBlocking, 121, 4, 2))
	c.Crash(1000*time.Millisecond, 1)
	c.Crash(3000*time.Millisecond, 1)
	settle(t, c, 240*time.Second)
	mustCheck(t, c)
	if p := c.Proc(1); p.Incarnation() != 3 {
		t.Errorf("incarnation = %d, want 3", p.Incarnation())
	}
	g, got := golden.Digests(), c.Digests()
	for i := range g {
		if g[i] != got[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, got[i], g[i])
		}
	}
}

// TestCrashDuringReplay re-crashes a process while it is replaying.
func TestCrashDuringReplay(t *testing.T) {
	golden := New(slowRingConfig(recovery.NonBlocking, 131, 4, 2))
	settle(t, golden, 120*time.Second)

	c := New(slowRingConfig(recovery.NonBlocking, 131, 4, 2))
	c.Crash(1000*time.Millisecond, 1)
	// fastHW: restart at ~1.35s, replay shortly after; crash again right in
	// that window.
	c.Crash(1400*time.Millisecond, 1)
	settle(t, c, 240*time.Second)
	mustCheck(t, c)
	g, got := golden.Digests(), c.Digests()
	for i := range g {
		if g[i] != got[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, got[i], g[i])
		}
	}
}
