package sim

import (
	"testing"
	"time"
	"unsafe"

	"rollrec/internal/ids"
	"rollrec/internal/netmodel"
	"rollrec/internal/node"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
)

// These tests pin the buffer-ownership contract of the simulator's node.Env
// (DESIGN §5): a stable write hands its buffer to the store instead of
// copying it, and a delivery costs no envelope.

func bootEnv(t *testing.T) (*Sharded, node.Env) {
	t.Helper()
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	k.Boot()
	return k, node.Env(k.shards[0].find(0))
}

// TestWriteStableNoCopyAllocs: a stable write allocates nothing, not even
// for a 1 MB image: the buffer the caller built is the one the store keeps,
// and the pending write is a record in its node's free list, not a closure.
// That holds with and without a callback, and for a completion deferred
// behind a busy process.
func TestWriteStableNoCopyAllocs(t *testing.T) {
	k, env := bootEnv(t)
	const image = 1 << 20
	img := storage.Image{Data: make([]byte, image), Pad: 7}
	done := 0
	cb := func() { done++ }
	for _, tc := range []struct {
		name string
		cb   func()
		busy bool
	}{
		{"no callback", nil, false},
		{"callback", cb, false},
		{"callback deferred", cb, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := done
			write := func() {
				if tc.busy {
					env.Busy(10 * time.Second) // past the write's completion
				}
				env.WriteStable("cp", img, tc.cb)
				k.Run(time.Duration(k.Now()) + time.Minute)
			}
			if got := testing.AllocsPerRun(20, write); got != 0 {
				t.Fatalf("a stable write of %d B allocates %.1f times, want 0", image, got)
			}
			if tc.cb != nil && done-before != 21 {
				t.Fatalf("%d of 21 write callbacks ran", done-before)
			}
			if got, ok := k.Store(0).Get("cp"); !ok || len(got.Data) != image || got.Pad != 7 {
				t.Fatalf("write not durable: ok=%v len=%d pad=%d", ok, len(got.Data), got.Pad)
			}
		})
	}
}

// TestReadStableAllocs is the read twin: a stable read allocates the copy its
// callback owns (storage.Store.Get) and its completion closure, nothing else,
// so only the closure for an absent key or an image that is all padding, and
// its completion defers behind a busy process like any callback. Reads happen
// only at restarts and rollbacks, so their closure stays.
func TestReadStableAllocs(t *testing.T) {
	k, env := bootEnv(t)
	env.WriteStable("cp", storage.Image{Data: []byte("checkpoint"), Pad: 5}, nil)
	env.WriteStable("pad", storage.Image{Pad: 64}, nil)
	k.Run(time.Minute)
	for _, tc := range []struct {
		key   string
		busy  bool
		want  float64
		found bool
		size  int
	}{
		{"cp", false, 2, true, 15},
		{"cp", true, 2, true, 15},
		{"pad", false, 1, true, 64},
		{"absent", false, 1, false, 0},
	} {
		var reads int
		var last storage.Image
		var ok bool
		cb := func(img storage.Image, found bool) { reads, last, ok = reads+1, img, found }
		read := func() {
			if tc.busy {
				env.Busy(time.Second)
			}
			env.ReadStable(tc.key, cb)
			k.Run(time.Duration(k.Now()) + time.Minute)
		}
		if got := testing.AllocsPerRun(20, read); got != tc.want {
			t.Fatalf("reading %q (busy %v) allocates %.1f times, want %.0f (the copy and the closure)", tc.key, tc.busy, got, tc.want)
		}
		if reads != 21 || ok != tc.found || last.Size() != tc.size {
			t.Fatalf("reading %q: %d of 21 callbacks ran, last with %d B, %v; want %d B, %v",
				tc.key, reads, last.Size(), ok, tc.size, tc.found)
		}
	}
}

// TestEventSlotSize pins the event slot at 104 B: a write completion names
// its record through the int32 an arrival keeps its pad in (aux), and a
// wider slot costs every event of every run (a pointer more read +5.9 %
// explore wall time).
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 104 {
		t.Fatalf("event slot is %d B, want 104", got)
	}
}

// TestCrashDuringWriteKeepsPreviousValue: durability happens at completion,
// so a crash while the write is in flight loses it — ownership of the
// buffer moved to the runtime, neither its contents nor its padding ever
// reached the store — and the previous value stays intact.
func TestCrashDuringWriteKeepsPreviousValue(t *testing.T) {
	k, env := bootEnv(t)
	env.WriteStable("cp", storage.Image{Data: []byte("first"), Pad: 100}, nil)
	k.Run(time.Minute)
	done := false
	env.WriteStable("cp", storage.Image{Data: []byte("second"), Pad: 200}, func() { done = true })
	env.WriteStable("other", storage.Image{Pad: 300}, nil)
	k.shards[0].crash(0)
	k.Run(2 * time.Minute)
	if done {
		t.Fatal("completion callback of a write lost to a crash must not run")
	}
	if got, ok := k.Store(0).Get("cp"); !ok || string(got.Data) != "first" || got.Pad != 100 {
		t.Fatalf("cp = %q + %d, %v; the in-flight write must be lost and the old value kept", got.Data, got.Pad, ok)
	}
	if k.Store(0).Bytes() != 105 {
		t.Fatalf("store holds %d logical bytes, want the 105 of the first image", k.Store(0).Bytes())
	}
	if _, ok := k.Store(0).Get("other"); ok {
		t.Fatal("a write in flight at the crash must not become durable")
	}
}

// TestSendReceiveAllocs is the gate on BenchmarkKernelSendReceive: one
// end-to-end message allocates nothing — the envelope is the kernel's own (it
// was an allocation when deliver used Decode), the decoded payload a view of
// the frame (it was one while Reader.Bytes copied), and the frame a buffer
// from the kernel's free list (it was one until frames were recycled).
func TestSendReceiveAllocs(t *testing.T) {
	if got := sendReceiveAllocsPerMsg(allocGateSharded(1)); got != 0 {
		t.Fatalf("send+receive allocates %.2f/msg, want 0", got)
	}
}

// TestLinkTableAllocs: a node that sends to rising destinations — a fanout
// run's first sends — allocates its link table twice: at the first send, up
// to that destination, and at the first one past it, for every destination
// of the cluster, n + 1 links (the storage pseudo-process included). A table
// grown destination by destination would leave a trail of outgrown arrays.
func TestLinkTableAllocs(t *testing.T) {
	const n = 64
	s := NewSharded(Config{Seed: 1, HW: hwFast()}, 2)
	for id := range ids.ProcID(n) {
		s.AddNode(id, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	}
	s.Boot()
	ns := s.shards[0].find(0)
	e := &wire.Envelope{Kind: wire.KindApp, FromInc: 1}
	tables, last := 0, (*netmodel.Link)(nil)
	for to := ids.ProcID(1); to < n; to++ {
		ns.Send(to, e)
		if &ns.links[0] != last {
			tables, last = tables+1, &ns.links[0]
		}
	}
	s.Run(time.Second)
	if tables > 2 || len(ns.links) != n+1 || cap(ns.links) != n+1 {
		t.Fatalf("sends to destinations 1..%d allocated %d link tables and left %d links (cap %d), want at most 2 and exactly %d",
			n-1, tables, len(ns.links), cap(ns.links), n+1)
	}
}

// TestFrameReturnsWhereItsArrivalEnds: a unicast frame's buffer is back on
// its sender's free list however its arrival ends — delivered, lost on a cut
// link, dropped at a down node, or addressed to a node never registered —
// and the next frame of its class is encoded into it; a frame above
// maxFrameBuf is the collector's and enters no list.
func TestFrameReturnsWhereItsArrivalEnds(t *testing.T) {
	s, env := allocGateSharded(1)
	k := s.shards[0]
	e := &wire.Envelope{Kind: wire.KindApp, FromInc: 1, Payload: make([]byte, 64)}
	c := frameClass(wire.Size(e))
	send := func(to ids.ProcID) {
		env.Send(to, e)
		s.Run(time.Duration(s.Now()) + time.Second)
	}
	send(1)
	if len(k.frames[c]) != 1 {
		t.Fatalf("after a delivery the %d B list holds %d buffers, want 1", minFrameBuf<<c, len(k.frames[c]))
	}
	buf := &k.frames[c][0][:1][0]
	for _, tc := range []struct {
		name string
		end  func()
	}{
		{"delivered", func() { send(1) }},
		{"lost on a cut link", func() { s.Cut(0, 1); send(1); s.Heal(0, 1) }},
		{"dropped at a down node", func() { k.crash(1); send(1) }},
		{"addressed to no node", func() { send(5) }},
		{"above maxFrameBuf", func() {
			big := &wire.Envelope{Kind: wire.KindApp, FromInc: 1, Payload: make([]byte, maxFrameBuf)}
			env.Send(1, big)
			s.Run(time.Duration(s.Now()) + time.Minute)
		}},
	} {
		tc.end()
		n := 0
		for _, free := range k.frames {
			n += len(free)
		}
		if n != 1 || len(k.frames[c]) != 1 || &k.frames[c][0][:1][0] != buf {
			t.Fatalf("%s: the free lists hold %d buffers, want the one frame buffer", tc.name, n)
		}
	}
}
