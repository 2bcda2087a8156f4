// Package optimistic implements an optimistic message-logging protocol in
// the Strom–Yemini tradition [17], the other pole of the design space the
// paper positions FBL against (§6).
//
// Failure-free operation is cheaper than FBL's: each receiver logs its
// deliveries to its OWN stable storage asynchronously (no causal
// piggybacking of determinants, no sender involvement in replay) and
// messages carry only an n-entry dependency vector. The price is paid at
// failure time: deliveries that had not yet reached stable storage are
// lost, and any process whose state depends on a lost interval is an
// ORPHAN — it must roll back too, possibly cascading. The paper's §6:
// "Optimistic protocols reduce the overhead of tracking dependencies
// during failure-free operation at the expense of complicating recovery
// and the potential for processes that survive failures to become
// orphans."
//
// Mechanics:
//
//   - Delivery i at process p defines p's state interval i. Outgoing
//     messages carry p's transitive dependency vector dv (dv[q] = highest
//     interval of q that p's state depends on); receivers merge it.
//   - The delivery log (message + the dv in force after it) sits in a
//     volatile buffer, flushed to stable storage every FlushEvery.
//   - On crash, p restores by re-reading its stable log and replaying it
//     locally (re-executing sends, which receivers de-duplicate). Its
//     frontier is the logged length; everything beyond is lost. It then
//     broadcasts a retraction (victim, frontier, epoch).
//   - On a retraction, a process whose dv[victim] exceeds the frontier is
//     an orphan: it truncates its own log to the longest prefix not
//     depending on the lost suffix, replays locally, and broadcasts its
//     own retraction — the cascade.
//   - After any rollback, the process asks every peer to retransmit from
//     its (reverted) per-sender watermark; senders serve from volatile
//     send buffers, garbage-collected by flush notices.
package optimistic

import (
	"time"

	"rollrec/internal/channel"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// Params configures one optimistic-logging process.
type Params struct {
	// App builds the hosted application.
	App workload.Factory
	// FlushEvery is the asynchronous log-flush period.
	FlushEvery time.Duration
	// StatePad models the per-flush stable-storage payload beyond the
	// entries themselves.
	StatePad int
	// RetryEvery is the retransmission-request retry period after a
	// rollback.
	RetryEvery time.Duration
	// Outputs receives the output-commit lifecycle (nil disables tracking;
	// Ctx.Output is then a no-op).
	Outputs output.Sink
}

// Stable-store keys.
const (
	keyLog   = "olog"
	keyEpoch = "oepoch"
)

// interval identifies one state interval of a process: the epoch
// (incarnation) it was created in and its index. Pairs order
// lexicographically; a retraction kills every pair of an older epoch
// beyond the surviving frontier (the Strom–Yemini incarnation end table).
type interval struct {
	epoch uint32
	index int64
}

func (a interval) less(b interval) bool {
	if a.epoch != b.epoch {
		return a.epoch < b.epoch
	}
	return a.index < b.index
}

type logEntry struct {
	from    ids.ProcID
	ssn     ids.SSN
	dseq    uint64
	payload storage.Image
	dv      []interval // dependency vector in force after this delivery
}

// endRecord says: intervals of victim with epoch <= upto and index >
// frontier are dead.
type endRecord struct {
	upto     uint32
	frontier int64
}

// Process is one optimistic-logging protocol instance.
type Process struct {
	env   node.Env
	par   Params
	n     int
	peers []ids.ProcID // everyone else, in id order: the notices' and retractions' destinations

	app   workload.App
	epoch uint32

	ssn     ids.SSN
	out     channel.Out
	sendLog channel.Log // volatile retransmission buffers
	in      channel.In

	dv       []interval // transitive dependency vector (self entry = own interval)
	log      []logEntry // full delivery log (prefix durable up to flushed)
	flushed  int        // entries durably on stable storage
	flushing bool

	// endTable[q] holds the incarnation end records for q: which of its
	// state intervals have been retracted. Messages depending on a dead
	// interval are rejected — this is what stops an abandoned timeline's
	// in-flight messages from resurrecting it.
	endTable []([]endRecord)

	epochVec []uint32 // newest known epoch per process (stale rejection)
	// durFrontier[q] is q's last announced durable interval frontier; the
	// componentwise-dominated prefix of our log is the globally stable
	// recovery line, the only part senders may garbage-collect against.
	durFrontier []int64
	rolling     bool // local replay in progress
	deferred    []*wire.Envelope
	retryTimer  node.Timer

	// Output commit (DESIGN §10).
	outSeq      uint64    // outputs requested so far on the surviving timeline
	pendingOuts []optWait // requested, causal past not yet fully durable

	// tx is the envelope every send is built in, and idx and eps the vectors
	// it carries (transmit's dependency vector, a flush notice's watermarks
	// in idx): Send serialises them at call time, so the next send
	// overwrites them.
	tx  wire.Envelope
	idx []ids.SSN
	eps []ids.Incarnation
}

var _ node.Process = (*Process)(nil)

// New returns the node.Renew of optimistic-logging process slots.
func New(par Params) node.Renew {
	if par.FlushEvery <= 0 {
		par.FlushEvery = 500 * time.Millisecond
	}
	if par.RetryEvery <= 0 {
		par.RetryEvery = time.Second
	}
	return func(old node.Process) node.Process {
		p, ok := old.(*Process)
		if !ok {
			p = new(Process)
		}
		p.par = par
		return p
	}
}

// Boot implements node.Process on a zero Process that keeps its arrays.
func (p *Process) Boot(env node.Env, restart bool) {
	n := env.N()
	*p = Process{
		env: env, par: p.par, n: n, peers: ids.Peers(env.ID(), n), out: ids.PerProc(p.out, n),
		sendLog: p.sendLog, in: p.in, dv: ids.PerProc(p.dv, n), epochVec: ids.PerProc(p.epochVec, n),
		durFrontier: ids.PerProc(p.durFrontier, n), endTable: ids.PerProc(p.endTable, n),
		idx: p.idx, eps: p.eps,
	}
	p.sendLog.Reset(n)
	p.in.Reset(n)
	p.app = p.par.App(env.ID(), p.n)

	var flushTick func()
	flushTick = func() {
		p.flush()
		p.env.After(p.par.FlushEvery, flushTick)
	}
	env.After(p.par.FlushEvery, flushTick)

	if !restart {
		p.epoch = 1
		p.epochVec[env.ID()] = 1
		p.app.Start(appCtx{p})
		return
	}
	// Crash recovery: replay the durable log locally — no coordination
	// with anyone (the optimistic selling point) — then retract the lost
	// suffix.
	p.rolling = true
	env.ReadStable(keyEpoch, func(ed storage.Image, _ bool) {
		prevEpoch := parseEpoch(ed.Data)
		env.ReadStable(keyLog, func(data storage.Image, ok bool) {
			if tr := env.Metrics().CurrentRecovery(); tr != nil {
				tr.RestoredAt = env.Now()
			}
			p.epoch = prevEpoch + 1
			p.epochVec[env.ID()] = p.epoch
			p.persistEpoch()
			var entries []logEntry
			if ok {
				var err error
				if entries, err = decodeLog(data); err != nil {
					panic(err.Error()) // self-written: a bug, not input
				}
			}
			p.rebuildFrom(entries)
			p.broadcastRetract()
			p.finishRollback()
		})
	})
}

func (p *Process) persistEpoch() {
	w := wire.NewWriter(4)
	w.U32(p.epoch)
	p.env.WriteStable(keyEpoch, storage.Image{Data: w.Frame()}, nil)
}

func parseEpoch(data []byte) uint32 {
	if len(data) < 4 {
		return 1
	}
	r := wire.NewReader(data)
	epoch := r.U32()
	if r.Err() != nil {
		return 1
	}
	return epoch
}

// selfIndex returns this process's current state-interval index (its
// delivery count on the surviving timeline).
func (p *Process) selfIndex() int64 { return p.dv[p.env.ID()].index }

// dead reports whether an interval of process q has been retracted.
func (p *Process) dead(q ids.ProcID, iv interval) bool {
	for _, r := range p.endTable[q] {
		if iv.epoch <= r.upto && iv.index > r.frontier {
			return true
		}
	}
	return false
}

// rebuildFrom resets all volatile state and replays the given log through a
// fresh application instance, re-executing (and re-transmitting) its sends.
func (p *Process) rebuildFrom(entries []logEntry) {
	p.ssn = 0
	clear(p.out)
	p.sendLog.Reset(p.n)
	p.in.Reset(p.n)
	// The self entry starts at zero and is re-merged from the replayed
	// entries (which carry their original epochs); new deliveries then
	// continue in the current epoch, which orders above all survivors.
	p.dv = make([]interval, p.n)
	p.log = nil
	p.flushed = 0
	// Replay re-executes the surviving prefix's outputs, re-requesting the
	// same sequence numbers; the ledger recognizes already-released ones.
	p.outSeq = 0
	p.pendingOuts = nil
	p.app = p.par.App(p.env.ID(), p.n)
	p.app.Start(appCtx{p})
	for _, e := range entries {
		p.applyDelivery(e.from, e.ssn, e.dseq, e.payload, e.dv, true)
	}
	p.flushed = len(p.log)
}

func (p *Process) finishRollback() {
	if tr := p.env.Metrics().CurrentRecovery(); tr != nil && tr.ReplayedAt == 0 {
		tr.GatheredAt = p.env.Now()
		tr.ReplayedAt = p.env.Now()
		tr.Incarnation = p.epoch
	}
	p.rolling = false
	// Recovery complete: the replayed (durable) prefix's outputs commit now.
	p.checkOutputs()
	buf := p.deferred
	p.deferred = nil
	for _, e := range buf {
		p.Deliver(e)
	}
	p.in.Request(p.env, ids.Incarnation(p.epoch))
	p.armRetry()
}

func (p *Process) broadcastRetract() {
	// Record our own retraction too: in-flight messages that causally depend
	// on the lost suffix must be stale-dropped, not delivered. Delivering
	// one would merge the dead intervals back into our dependency vector —
	// resurrecting the abandoned timeline and making us an orphan of our
	// own rollback when the peers' retractions arrive.
	p.endTable[p.env.ID()] = append(p.endTable[p.env.ID()],
		endRecord{upto: p.epoch - 1, frontier: p.selfIndex()})
	p.tx = wire.Envelope{
		Kind:    wire.KindRecoveryAnnounce, // reused as RETRACT in this protocol
		FromInc: ids.Incarnation(p.epoch),
		SSN:     ids.SSN(p.selfIndex()), // the surviving frontier
	}
	p.env.Multicast(p.peers, &p.tx)
}

func (p *Process) armRetry() {
	p.retryTimer.Stop()
	count := 0
	var tick func()
	tick = func() {
		// A few retries cover races around concurrent rollbacks; steady
		// state needs none.
		if count++; count > 5 {
			return
		}
		p.in.Request(p.env, ids.Incarnation(p.epoch))
		p.retryTimer = p.env.After(p.par.RetryEvery, tick)
	}
	p.retryTimer = p.env.After(p.par.RetryEvery, tick)
}
