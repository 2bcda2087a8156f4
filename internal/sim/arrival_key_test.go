package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/wire"
)

// keyLogProc logs every frame it receives as "to<-from".
type keyLogProc struct {
	id  ids.ProcID
	log *[]string
}

func (p *keyLogProc) Boot(node.Env, bool) {}
func (p *keyLogProc) Deliver(e *wire.Envelope) {
	*p.log = append(*p.log, fmt.Sprintf("%d<-%d", p.id, e.From))
}

// frameOfSize encodes an app frame from `from` of exactly n bytes.
func frameOfSize(t *testing.T, from ids.ProcID, n int) []byte {
	t.Helper()
	for pad := 0; pad <= n; pad++ {
		if f := wire.Encode(&wire.Envelope{Kind: wire.KindApp, From: from, Payload: make([]byte, pad)}); len(f) == n {
			return f
		}
	}
	t.Fatalf("no app frame is %d bytes long", n)
	return nil
}

// TestShardArrivalKeyOrder pins the kernel's ordering key (at, phase, tie)
// to the dispatch rule: at one instant a kernel dispatches the ordinary events created in phase p (here,
// timers) in creation order, then the frames sent in phase p by (to, from,
// send order), then phase p+1. Four senders' frames, sent in scrambled order
// over two windows, a harness send between two Run calls and the window after
// it, all land at one instant T on receivers 4 and 6 — the same shard at two
// shards, so one kernel's order covers every part of the key — and every
// phase also leaves a timer for T. The queue gauges, read off the window grid
// mid-window, keep their meaning whether a frame waited in an outbox or not:
// a frame is queued from the end of the phase it was sent in, and in flight
// from its send. The same-link subtests pin the send count (sameLinkTie), the
// timer-first ones a timer armed after a frame of its phase (timerFirst).
// New is a row of its own: the one-shard runtime every unit test uses runs
// the order that ships.
func TestShardArrivalKeyOrder(t *testing.T) {
	const (
		L = time.Millisecond // latency = window width
		T = 3 * time.Millisecond
	)
	want := []string{
		"timer A6", "timer A4", "4<-1", "4<-3", "6<-2", "6<-3", // phase A
		"timer B4", "4<-2", "6<-1", // phase B
		"4<-5",             // the harness send's phase
		"timer C6", "6<-5", // phase C
	}
	for _, rt := range []struct {
		name  string
		build func(Config) *Sharded
	}{
		{"new", New},
		{"shards=1", func(cfg Config) *Sharded { return NewSharded(cfg, 1) }},
		{"shards=2", func(cfg Config) *Sharded { return NewSharded(cfg, 2) }},
	} {
		t.Run(rt.name, func(t *testing.T) {
			hw := hwFast()
			hw.Net.Bandwidth = 1e6 // a byte takes 1µs on the wire: sizes choose arrival times
			s := rt.build(Config{Seed: 1, HW: hw})
			s.ForceWindowPath(false) // the receivers share log
			var log []string
			for id := ids.ProcID(0); id < 7; id++ {
				p := &keyLogProc{id: id, log: &log}
				s.AddNode(id, func() node.Process { return p })
			}
			s.Boot()
			env := func(id ids.ProcID) *nodeState { return s.shardFor(id).find(id) }
			// send puts a frame on from→to that arrives at T.
			send := func(from, to ids.ProcID) {
				ns := env(from)
				ns.sendFrame(to, wire.KindApp, frameOfSize(t, from, int((T-L-time.Duration(ns.Now()))/time.Microsecond)))
			}
			timer := func(on ids.ProcID, name string) {
				ns := env(on)
				ns.After(T-time.Duration(ns.Now()), func() { log = append(log, "timer "+name) })
			}
			// Window A, [0, 1ms).
			s.At(300*time.Microsecond, func() { send(3, 6); send(3, 4) })
			s.At(500*time.Microsecond, func() { timer(6, "A6"); send(2, 6) })
			s.At(700*time.Microsecond, func() { send(1, 4); timer(4, "A4") })
			// Window B, [1ms, 2ms), cut by the end of the first run at 1.7ms.
			s.At(1200*time.Microsecond, func() { send(2, 4); timer(4, "B4") })
			s.At(1400*time.Microsecond, func() { send(1, 6) })
			s.At(1450*time.Microsecond, func() {
				// Queued: A's four frames and three timers; B's two frames are
				// in flight but not queued until B closes.
				if q, f := s.QueueDepth(), s.InFlightFrames(); q != 7 || f != 6 {
					t.Errorf("mid-window QueueDepth, InFlightFrames = %d, %d; want 7, 6", q, f)
				}
			})
			s.Run(1700 * time.Microsecond)
			send(5, 4) // a harness send between two runs
			if q, f := s.QueueDepth(), s.InFlightFrames(); q != 9 || f != 7 {
				t.Errorf("between runs QueueDepth, InFlightFrames = %d, %d; want 9, 7", q, f)
			}
			// Window C, the rest of [1ms, 2ms), in the second run.
			s.At(1800*time.Microsecond, func() { timer(6, "C6"); send(5, 6) })
			s.Run(10 * time.Millisecond)
			if !slices.Equal(log, want) {
				t.Errorf("dispatch order at T:\n got %q\nwant %q", log, want)
			}
			if q, f := s.QueueDepth(), s.InFlightFrames(); q != 0 || f != 0 {
				t.Errorf("after the run QueueDepth, InFlightFrames = %d, %d; want 0, 0", q, f)
			}
		})
		t.Run("same-link/"+rt.name, func(t *testing.T) { sameLinkTie(t, rt.build(Config{Seed: 1, HW: hwFast()})) })
		t.Run("timer-first/"+rt.name, func(t *testing.T) { timerFirst(t, rt.build(Config{Seed: 1, HW: hwFast()})) })
	}
}

// sameLinkTie: the network never delivers two frames of one link at one
// instant (its FIFO clamp), so the send count is the key's last resort.
// Frames equal in every other part still dispatch in send order whatever
// order they are pushed in — straight onto the heap at one shard, or from
// the outbox at two.
func sameLinkTie(t *testing.T, s *Sharded) {
	var got []uint64
	s.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	s.AddNode(1, func() node.Process { return ssnLogProc{&got} })
	s.Boot()
	from, to := s.shardFor(0), s.shardFor(1)
	for _, count := range []uint64{3, 1, 4, 2} {
		m := outMsg{at: int64(time.Millisecond), count: count, from: 0, to: 1,
			frame: wire.Encode(&wire.Envelope{Kind: wire.KindApp, From: 0, SSN: ids.SSN(count)})}
		if from == to {
			to.arrive(&m, to.phase)
		} else {
			from.out = append(from.out, m)
		}
	}
	s.Run(time.Second)
	if want := []uint64{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("delivered send counts %v, want %v", got, want)
	}
}

// timerFirst: node 0 sends a frame at boot, and node 1, booting after it in
// the same phase, arms a timer for the frame's arrival instant. The timer is
// an ordinary event of that phase and the frame an arrival sent in it, so
// the timer dispatches first, although it was created second.
func timerFirst(t *testing.T, s *Sharded) {
	var log []string
	s.AddNode(0, func() node.Process {
		return bootFunc(func(env node.Env, _ bool) { env.Send(1, &wire.Envelope{Kind: wire.KindApp, FromInc: 1}) })
	})
	s.AddNode(1, func() node.Process {
		return timerLogProc{&keyLogProc{id: 1, log: &log}, hwFast().Net.Latency}
	})
	s.Boot()
	s.Run(time.Second)
	if want := []string{"timer", "1<-0"}; !slices.Equal(log, want) {
		t.Errorf("dispatch order at the arrival instant: got %q, want %q", log, want)
	}
}

// timerLogProc is a keyLogProc that arms a timer for `at` on boot.
type timerLogProc struct {
	*keyLogProc
	at time.Duration
}

func (p timerLogProc) Boot(env node.Env, _ bool) {
	env.After(p.at, func() { *p.log = append(*p.log, "timer") })
}

// ssnLogProc logs the SSN of every frame it receives.
type ssnLogProc struct{ got *[]uint64 }

func (p ssnLogProc) Boot(node.Env, bool)      {}
func (p ssnLogProc) Deliver(e *wire.Envelope) { *p.got = append(*p.got, uint64(e.SSN)) }
