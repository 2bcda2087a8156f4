package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/wire"
)

// windowPaths are the two ways a window can run, forced through the test
// hook so each is exercised whatever the density and GOMAXPROCS.
var windowPaths = []struct {
	name     string
	parallel bool
}{{"inline", false}, {"fanout", true}}

func TestShardPanicNamesShard(t *testing.T) {
	for _, path := range windowPaths {
		t.Run(path.name, func(t *testing.T) {
			s := NewSharded(Config{Seed: 1, HW: hwFast()}, 2)
			s.ForceWindowPath(path.parallel)
			s.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
			s.AddNode(1, func() node.Process {
				return bootFunc(func(env node.Env, _ bool) {
					env.After(5*time.Millisecond, func() { panic("boom") })
				})
			})
			s.Boot()
			defer func() {
				if r, want := recover(), "sim: shard 1: boom"; r != want {
					t.Fatalf("recovered %v, want %q", r, want)
				}
			}()
			s.Run(time.Second)
		})
	}
}

// echoProc returns every frame to its sender and counts what it got; onNth,
// if set, runs inside the nth delivery.
type echoProc struct {
	env   node.Env
	peer  ids.ProcID
	serve bool
	got   *int
	nth   int
	onNth func()
}

func (p *echoProc) Boot(env node.Env, _ bool) {
	p.env = env
	if p.serve {
		env.Send(p.peer, &wire.Envelope{Kind: wire.KindApp, FromInc: 1, SSN: 1})
	}
}

func (p *echoProc) Deliver(e *wire.Envelope) {
	*p.got++
	if *p.got == p.nth && p.onNth != nil {
		p.onNth()
	}
	p.env.Send(e.From, &wire.Envelope{Kind: wire.KindApp, FromInc: 1, SSN: e.SSN + 1})
}

// echoPairs builds two ping-pong pairs, (0,1) and (2,3), on two shards:
// every frame crosses the shard boundary and both shards have work in every
// window. Process 0 calls onTenth inside its tenth delivery.
func echoPairs(parallel bool, onTenth func()) (*Sharded, []int) {
	s := NewSharded(Config{Seed: 1, HW: hwFast()}, 2)
	s.ForceWindowPath(parallel)
	got := make([]int, 4)
	for i := range got {
		p := &echoProc{peer: ids.ProcID(i ^ 1), serve: i%2 == 0, got: &got[i]}
		if i == 0 {
			p.nth, p.onNth = 10, onTenth
		}
		s.AddNode(ids.ProcID(i), func() node.Process { return p })
	}
	s.Boot()
	return s, got
}

// TestShardedCancelStopsBetweenWindows: a context cancelled from inside a
// window stops the run at that window's boundary on either path, and the run
// resumes on the same grid to the totals of an uninterrupted one.
func TestShardedCancelStopsBetweenWindows(t *testing.T) {
	const horizon = 200 * time.Millisecond
	for _, path := range windowPaths {
		t.Run(path.name, func(t *testing.T) {
			whole, wholeGot := echoPairs(path.parallel, nil)
			wholeEvents := whole.Run(horizon)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s, got := echoPairs(path.parallel, cancel)
			n, err := s.RunContext(ctx, horizon)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext error = %v, want context.Canceled", err)
			}
			if n == 0 || n >= wholeEvents {
				t.Fatalf("cancelled run processed %d of %d events", n, wholeEvents)
			}
			if (s.Now()+1)%s.window != 0 {
				t.Fatalf("cancelled run stopped at %v, inside a window of %v", time.Duration(s.Now()), time.Duration(s.window))
			}
			if got[0] != 10 {
				t.Fatalf("process 0 took %d deliveries after cancelling in its 10th", got[0])
			}
			rest := s.Run(horizon)
			if n+rest != wholeEvents {
				t.Fatalf("cancelled + resumed = %d + %d events, uninterrupted = %d", n, rest, wholeEvents)
			}
			for i := range got {
				if got[i] != wholeGot[i] {
					t.Fatalf("process %d: %d deliveries after resume, %d uninterrupted", i, got[i], wholeGot[i])
				}
			}
		})
	}
}

// denseShards spreads perWindow no-op events over two shards in each of the
// first `windows` windows and returns the coordinator un-run.
func denseShards(windows, perWindow int) *Sharded {
	s := NewSharded(Config{Seed: 1, HW: hwFast()}, 2)
	nop := func() {}
	for w := 0; w < windows; w++ {
		for e := 0; e < perWindow; e++ {
			s.shards[e%2].schedule(int64(w)*s.window+int64(e), nop)
		}
	}
	return s
}

// TestDenseWindowsFanOut pins the per-window rule at its boundary: the first
// window has no predecessor and runs inline; every later one fans out when
// the window before it held fanOutMin events and not when it held one fewer
// — and never when there is only one thread to fan out onto.
func TestDenseWindowsFanOut(t *testing.T) {
	const windows = 10
	for _, perWindow := range []int{fanOutMin, fanOutMin - 1} {
		s := denseShards(windows, perWindow)
		s.Run(time.Duration(windows * s.window))
		want := WindowStats{Inline: windows, Events: int64(windows * perWindow)}
		if perWindow >= fanOutMin && runtime.GOMAXPROCS(0) > 1 {
			want.Inline, want.FannedOut = 1, windows-1
		}
		if got := s.Windows(); got != want {
			t.Errorf("%d events per window: Windows() = %+v, want %+v", perWindow, got, want)
		}
	}
}

// TestInlineWindowAllocs is the gate `make bench-kernel` runs for the sparse
// path: a window run inline costs the coordinator no allocation at all (a
// fanned-out one allocates its result slices and a closure per shard).
func TestInlineWindowAllocs(t *testing.T) {
	s := NewSharded(Config{Seed: 1, HW: hwFast()}, 2)
	nop := func() {}
	var target int64
	window := func() {
		target += s.window
		for _, k := range s.shards {
			k.schedule(target, nop)
		}
		if n := s.runInline(target); n != 2 {
			t.Fatalf("window ran %d events, want 2", n)
		}
	}
	window() // warm the event arenas
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Errorf("an inline window allocates %.1f times, want 0", allocs)
	}
}
