package sim

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/wire"
)

// sendReceiveAllocsPerMsg measures steady-state allocations per end-to-end
// message — encode, network model, (outbox exchange on the sharded runtime),
// arrival, decode, deliver — on a bare kernel or the coordinator. The batch is sized so per-window
// coordinator costs (boundary sort, barrier bookkeeping) amortize to noise;
// a regression that makes them per-message shows up as a whole extra
// allocation per event.
func sendReceiveAllocsPerMsg(r interface {
	Run(until time.Duration) int64
	Now() int64
}, env node.Env) float64 {
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

func allocGateKernel() (*Kernel, node.Env) {
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	k.AddNode(1, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	k.Boot()
	return k, node.Env(k.find(0))
}

// allocGateSharded splits the same two nodes across two shards, so every
// message crosses a shard boundary: the outbox enqueue, the sorted flush, and
// the window barrier all sit on the measured path.
func allocGateSharded() (*Sharded, node.Env) {
	s := NewSharded(Config{Seed: 1, HW: hwFast()}, 2)
	s.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	s.AddNode(1, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	s.Boot()
	return s, node.Env(s.shards[0].find(0))
}

// TestShardedScheduleDeliverAllocs is the sharded-path allocation regression
// gate CI runs: routing a message through the conservative-window coordinator
// must cost at most a fraction of an allocation per message over a bare
// kernel — the outbox slots, flush scratch, and boundary sort state are all
// reused, so only per-window bookkeeping (amortized over the batch) remains.
func TestShardedScheduleDeliverAllocs(t *testing.T) {
	k, kenv := allocGateKernel()
	bare := sendReceiveAllocsPerMsg(k, kenv)
	s, senv := allocGateSharded()
	sharded := sendReceiveAllocsPerMsg(s, senv)
	t.Logf("allocs/msg: bare=%.3f sharded=%.3f", bare, sharded)
	if sharded > bare+0.5 {
		t.Errorf("sharded send/receive allocates %.3f/msg vs bare kernel %.3f/msg; coordinator overhead must stay amortized per window, not per message", sharded, bare)
	}
}

// BenchmarkKernelShardedSendReceive is the sharded twin of
// BenchmarkKernelSendReceive: the end-to-end message path through the
// two-shard coordinator, boundary exchange included.
func BenchmarkKernelShardedSendReceive(b *testing.B) {
	s, env := allocGateSharded()
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
