package sim

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/wire"
)

// sendReceiveAllocsPerMsg measures steady-state allocations per end-to-end
// message — encode, network model, (outbox exchange for a frame to another
// shard), arrival, decode, deliver. The batch is sized so per-window
// coordinator costs (outbox flush, barrier bookkeeping) amortize to noise; a
// regression that makes them per-message shows up as a whole extra
// allocation per event.
func sendReceiveAllocsPerMsg(r *Sharded, env node.Env) float64 {
	e := &wire.Envelope{Kind: wire.KindApp, FromInc: 1, Payload: make([]byte, 64)}
	var ssn uint64
	round := func() {
		for i := 0; i < batchSize; i++ {
			ssn++
			e.SSN = ids.SSN(ssn)
			env.Send(1, e)
		}
		r.Run(time.Duration(r.Now()) + time.Second)
	}
	round() // warm the event arena and outbox capacity
	return testing.AllocsPerRun(20, round) / batchSize
}

// allocGateSharded puts the same two nodes on `shards` shards. At two every
// message crosses a shard boundary: the outbox enqueue, the flush, and the
// window barrier all sit on the measured path. At one no frame enters an
// outbox.
func allocGateSharded(shards int) (*Sharded, node.Env) {
	s := NewSharded(Config{Seed: 1, HW: hwFast()}, shards)
	s.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	s.AddNode(1, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	s.Boot()
	return s, node.Env(s.shards[0].find(0))
}

// TestShardedScheduleDeliverAllocs is the sharded-path allocation regression
// gate CI runs: routing a message across a shard boundary must cost at most a
// fraction of an allocation per message over one shard — the outbox slots
// are reused, and a frame taken back on the receiver's shard returns to the
// sender's free list at the flush, so only per-window bookkeeping (amortized
// over the batch) remains.
func TestShardedScheduleDeliverAllocs(t *testing.T) {
	one := sendReceiveAllocsPerMsg(allocGateSharded(1))
	sharded := sendReceiveAllocsPerMsg(allocGateSharded(2))
	t.Logf("allocs/msg: one shard=%.3f two shards=%.3f", one, sharded)
	if sharded > one+0.5 {
		t.Errorf("two-shard send/receive allocates %.3f/msg vs one shard %.3f/msg; coordinator overhead must stay amortized per window, not per message", sharded, one)
	}
}

// TestOneShardSendReceiveAllocs: at one shard every arrival goes straight
// onto the heap under its key, no outbox or away list is ever appended to,
// and a message reuses a frame buffer its kernel took back.
func TestOneShardSendReceiveAllocs(t *testing.T) {
	s, env := allocGateSharded(1)
	if one := sendReceiveAllocsPerMsg(s, env); one != 0 {
		t.Errorf("one-shard send/receive allocates %.3f/msg, want exactly 0", one)
	}
	if k := s.shards[0]; cap(k.out) != 0 || cap(k.away) != 0 {
		t.Errorf("the one-shard outbox grew to %d frames and the away list to %d; nothing may enter them", cap(k.out), cap(k.away))
	}
}

// BenchmarkKernelShardedSendReceive is the sharded twin of
// BenchmarkKernelSendReceive: the end-to-end message path through the
// two-shard coordinator, boundary exchange included.
func BenchmarkKernelShardedSendReceive(b *testing.B) {
	s, env := allocGateSharded(2)
	e := &wire.Envelope{Kind: wire.KindApp, FromInc: 1, Payload: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SSN = ids.SSN(i)
		env.Send(1, e)
		if (i+1)%batchSize == 0 {
			s.Run(time.Duration(s.Now()) + time.Second)
		}
	}
	s.Run(time.Duration(s.Now()) + time.Second)
}
