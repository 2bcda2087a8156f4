package explore

import (
	"fmt"

	"rollrec/internal/ids"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// The explorer's workloads are chosen for *detection power*, not realism:
// every delivery feeds an order-sensitive accumulator, so a protocol that
// loses, duplicates, or reorders even one message under some crash schedule
// ends the run with a different digest than the crash-free baseline — and
// every delivery also produces externally-visible output, so the ledger's
// commit rule is exercised on every branch.

// ringApp is a token ring (one causal chain, like workload.TokenRing) that
// additionally declares every hop externally visible via Ctx.Output. Used
// for the coordinated and optimistic families, whose recovery re-executes
// the deterministic chain.
type ringApp struct {
	self    ids.ProcID
	n       int
	maxHops uint64
	pad     int
	work    int64

	// Checkpointable state.
	visits  uint64
	lastHop uint64
	acc     uint64
	outs    uint64
}

// ringFactory returns a ring of maxHops hops.
func ringFactory(maxHops uint64, pad int, work int64) workload.Factory {
	return func(self ids.ProcID, n int) workload.App {
		return &ringApp{self: self, n: n, maxHops: maxHops, pad: pad, work: work}
	}
}

func (t *ringApp) token(hop, acc uint64) storage.Image {
	w := wire.NewWriter(20)
	w.U64(hop)
	w.U64(acc)
	w.Pad(t.pad)
	return storage.Image{Data: w.Frame(), Pad: w.Padded()}
}

func (t *ringApp) Start(ctx workload.Ctx) {
	if t.self == 0 && t.maxHops > 0 {
		ctx.Send(1%ids.ProcID(t.n), t.token(1, workload.Mix64(0, 0)))
	}
}

func (t *ringApp) Handle(ctx workload.Ctx, from ids.ProcID, payload storage.Image) error {
	r := wire.NewImageReader(payload.Data, payload.Pad)
	hop := r.U64()
	acc := r.U64()
	r.Tail()
	if r.Err() != nil {
		return fmt.Errorf("explore-ring: bad payload from %v: %w", from, r.Err())
	}
	if t.work > 0 {
		ctx.Work(t.work)
	}
	t.visits++
	t.lastHop = hop
	t.acc = workload.Mix64(acc, uint64(t.self))
	t.outs++
	out := wire.NewWriter(16)
	out.U64(t.outs)
	out.U64(t.acc)
	ctx.Output(out.Frame())
	if hop < t.maxHops {
		next := ids.ProcID((int(t.self) + 1) % t.n)
		ctx.Send(next, t.token(hop+1, t.acc))
	}
	return nil
}

func (t *ringApp) Snapshot() []byte {
	w := wire.NewWriter(32)
	w.U64(t.visits)
	w.U64(t.lastHop)
	w.U64(t.acc)
	w.U64(t.outs)
	return w.Frame()
}

func (t *ringApp) Restore(data []byte) error {
	r := wire.NewReader(data)
	t.visits = r.U64()
	t.lastHop = r.U64()
	t.acc = r.U64()
	t.outs = r.U64()
	if !r.Done() {
		return fmt.Errorf("explore: malformed ring snapshot")
	}
	return nil
}

func (t *ringApp) Digest() uint64 {
	return workload.Mix64(workload.Mix64(t.visits, t.lastHop), workload.Mix64(t.acc, t.outs))
}

func (t *ringApp) Done() bool {
	return t.lastHop+uint64(t.n) > t.maxHops && t.visits > 0
}

// funnelApp is a many-to-one request/reply workload: every client 1..n-1
// ping-pongs `rounds` requests at server 0, which folds them into a single
// *cross-sender order-sensitive* chain, outputs the chain state per request,
// and acks the sender. The server's digest depends on the exact global
// interleaving of client requests — the quantity a message-logging protocol
// must pin with determinants, and precisely what breaks when the
// determinant piggyback is sabotaged (the mutation self-test). Used for the
// FBL family.
type funnelApp struct {
	self   ids.ProcID
	n      int
	rounds uint64
	pad    int
	work   int64

	// Checkpointable state.
	chain   uint64 // server: order-sensitive fold of every request
	handled uint64 // server: requests processed
	acked   uint64 // client: replies received
	acc     uint64 // client: fold of observed server chain states
}

// funnelFactory returns a funnel of `rounds` requests per client.
func funnelFactory(rounds uint64, pad int, work int64) workload.Factory {
	return func(self ids.ProcID, n int) workload.App {
		return &funnelApp{self: self, n: n, rounds: rounds, pad: pad, work: work}
	}
}

func (f *funnelApp) frame(round, val uint64) storage.Image {
	w := wire.NewWriter(20)
	w.U64(round)
	w.U64(val)
	w.Pad(f.pad)
	return storage.Image{Data: w.Frame(), Pad: w.Padded()}
}

func (f *funnelApp) Start(ctx workload.Ctx) {
	if f.self != 0 && f.rounds > 0 {
		ctx.Send(0, f.frame(1, workload.Mix64(uint64(f.self), 1)))
	}
}

func (f *funnelApp) Handle(ctx workload.Ctx, from ids.ProcID, payload storage.Image) error {
	r := wire.NewImageReader(payload.Data, payload.Pad)
	round := r.U64()
	val := r.U64()
	r.Tail()
	if r.Err() != nil {
		return fmt.Errorf("explore-funnel: bad payload from %v: %w", from, r.Err())
	}
	if f.work > 0 {
		// Content-dependent work staggers the clients asymmetrically, so the
		// server's cross-sender receipt order is a genuine race: a recovery
		// that replays from retransmission arrival order (burst-paced)
		// instead of logged determinants reconstructs a *different*
		// interleaving — the divergence the explorer's orphan and fidelity
		// invariants exist to catch.
		ctx.Work(f.work * (1 + int64(val%3)))
	}
	if f.self == 0 {
		// Server: fold in cross-sender arrival order, output, ack.
		f.chain = workload.Mix64(f.chain, workload.Mix64(val, uint64(from)<<20|round))
		f.handled++
		out := wire.NewWriter(16)
		out.U64(f.handled)
		out.U64(f.chain)
		ctx.Output(out.Frame())
		ctx.Send(from, f.frame(round, f.chain))
		return nil
	}
	// Client: absorb the server's chain state, issue the next round. The
	// per-client, per-round skew keeps the clients out of lockstep: the
	// server's original receipt order is irregular, while a sabotaged
	// replay paced by retransmission bursts is near-alternating — so the
	// two interleavings cannot coincide by accident.
	f.acked++
	f.acc = workload.Mix64(f.acc, val)
	if round < f.rounds {
		// Higher-id clients think much longer between rounds, so the fast
		// client laps the slow ones and the server's original receipt order
		// is far from a strict alternation — while a sabotaged replay fed by
		// back-to-back retransmission bursts IS near-alternating, so the two
		// interleavings cannot coincide by accident.
		if skew := f.work * int64(f.self-1) * int64(round) * 8; skew > 0 {
			ctx.Work(skew)
		}
		ctx.Send(0, f.frame(round+1, workload.Mix64(uint64(f.self), round+1)))
	}
	return nil
}

func (f *funnelApp) Snapshot() []byte {
	w := wire.NewWriter(32)
	w.U64(f.chain)
	w.U64(f.handled)
	w.U64(f.acked)
	w.U64(f.acc)
	return w.Frame()
}

func (f *funnelApp) Restore(data []byte) error {
	r := wire.NewReader(data)
	f.chain = r.U64()
	f.handled = r.U64()
	f.acked = r.U64()
	f.acc = r.U64()
	if !r.Done() {
		return fmt.Errorf("explore: malformed funnel snapshot")
	}
	return nil
}

func (f *funnelApp) Digest() uint64 {
	return workload.Mix64(workload.Mix64(f.chain, f.handled), workload.Mix64(f.acked, f.acc))
}

func (f *funnelApp) Done() bool {
	if f.self == 0 {
		return f.handled >= uint64(f.n-1)*f.rounds
	}
	return f.acked >= f.rounds
}
