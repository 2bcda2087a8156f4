// Package fbl implements the Family-Based Logging protocol engine (paper
// §2): sender-based volatile message logging, causal determinant
// piggybacking parameterized by the failure budget f, periodic
// checkpointing with distributed garbage collection, and the deterministic
// replay machinery the recovery algorithm drives.
//
// Instances of the family: f = 1 behaves like Sender-Based Message Logging,
// intermediate f like the Alvisi–Marzullo FBL protocols, and f = n like
// Manetho, with a never-failing stable-storage pseudo-process as the
// required (f+1)-th determinant holder (§3.3).
package fbl

import (
	"encoding/binary"
	"fmt"
	"time"

	"rollrec/internal/channel"
	"rollrec/internal/det"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/vclock"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// Params configures one protocol process.
type Params struct {
	// F is the failure budget; F at or above the cluster size selects the
	// f = n instance with the storage pseudo-process.
	F int
	// App builds the hosted application.
	App workload.Factory
	// Style selects the recovery algorithm variant.
	Style recovery.Style
	// CheckpointEvery is the periodic checkpoint interval (0 disables
	// periodic checkpoints; recovery then replays from the beginning).
	CheckpointEvery time.Duration
	// StatePad inflates checkpoints by this many bytes to model the process
	// image size (the paper's processes were ~1 MB).
	StatePad int
	// HeartbeatEvery / SuspectAfter drive the failure detector.
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	// Fanout bounds per-process control traffic for large clusters. 0 (the
	// default) keeps the paper's all-to-all behavior: heartbeats and
	// checkpoint notices go to every peer. A positive k switches to a ring
	// scheme: heartbeats go to the k ring successors only (and the failure
	// detector monitors the k ring predecessors), checkpoint notices are
	// ring-scoped, and their garbage-collection content instead piggybacks
	// on application sends (CPRsn/CPDseq), so GC information still reaches
	// exactly the peers that hold state for us. Recovery announcements and
	// replay requests stay broadcast, and depinfo gathers become scoped to
	// the recovering members. Fanout 0 is byte-identical to the pre-fanout
	// protocol.
	Fanout int
	// Outputs receives the output-commit lifecycle (nil disables tracking;
	// Ctx.Output is then a no-op).
	Outputs output.Sink
	// Hooks receive out-of-band observation events for tests.
	Hooks Hooks
}

// withDefaults fills unset timing parameters.
func (p Params) withDefaults() Params {
	if p.HeartbeatEvery <= 0 {
		p.HeartbeatEvery = 250 * time.Millisecond
	}
	if p.SuspectAfter <= 0 {
		p.SuspectAfter = 3 * time.Second
	}
	return p
}

// storageFlushEvery is the determinant streaming period to the storage
// pseudo-process (f = n only).
const storageFlushEvery = 100 * time.Millisecond

// Hooks are optional observation callbacks used by the test harness to
// check cross-process invariants (exactly-once, orphan-freedom). They live
// outside the simulated world: crashing a process does not reset them.
type Hooks struct {
	// OnSend fires for every application send (including regenerated sends
	// during replay).
	OnSend func(self ids.ProcID, id ids.MsgID, to ids.ProcID, payloadHash uint64)
	// OnDeliver fires for every application delivery.
	OnDeliver func(self ids.ProcID, id ids.MsgID, from ids.ProcID, rsn ids.RSN, payloadHash uint64)
	// OnLive fires when a process (re)joins as live after replay; ssn and
	// rsn are the post-replay counters, i.e. the surviving timeline's
	// frontier (everything beyond was lost to the rollback).
	OnLive func(self ids.ProcID, inc ids.Incarnation, ssn ids.SSN, rsn ids.RSN)
}

// Process is one FBL protocol instance hosting one application. It
// implements node.Process; a crash loses its volatile state, which Boot
// clears, while its stable store persists in the runtime.
type Process struct {
	env node.Env
	par Params
	n   int
	cfg det.Config

	inc    ids.Incarnation
	incVec vclock.IncVector
	lam    vclock.Lamport

	app     workload.App
	started bool

	// Send path.
	ssn     ids.SSN
	out     channel.Out
	sendLog channel.Log

	// Receive path.
	rsn ids.RSN
	in  channel.In

	dets  *det.Log
	cpRSN ids.RSN // delivery watermark covered by the last durable checkpoint
	// cpExp is the per-sender consumed watermark as of the last durable
	// checkpoint (the same snapshot a checkpoint notice's SSNWatermarks
	// carries). Fanout mode piggybacks it on application sends so receivers
	// can prune their send logs without a broadcast notice. It must never
	// track the live in.Exp: a watermark beyond the durable checkpoint
	// would let senders drop messages we still need for replay.
	cpExp []uint64

	// scanGen is, per destination, the determinant-log generation at our
	// last piggyback scan for it: the next transmit offers what changed
	// since. This one integer is the dependency-matrix estimate of the FBL
	// protocols [Alvisi–Marzullo] — an entry the receiver was already
	// offered with the same holders is not piggybacked again. -1 after the
	// destination reincarnated (its volatile log died with it): offer the
	// whole pending set again.
	scanGen []int
	// tx is the envelope each send is built in and txDets its list: the
	// piggyback, encoded as the scan selects it, or a storage stream's view
	// of the log. txIDs are the selected ids (fanout mode: the holder
	// estimate follows the scan), txBytes their piggyback bytes. The next
	// send overwrites them all; Boot keeps their arrays.
	txDets  wire.DetList
	txIDs   []ids.MsgID
	txBytes int64
	tx      wire.Envelope

	// mgr owns the lifecycle (recovery.State) and the blocked flag: every
	// path here routes by them.
	mgr    *recovery.Manager
	detect *failure.Detector
	// succ is where heartbeats and checkpoint notices go: the fanout-mode
	// ring(+1) neighborhood, or every peer in id order; fixed at Boot.
	succ []ids.ProcID

	// Replay state.
	needed    map[ids.MsgID]ids.RSN
	replayBuf map[ids.RSN]*wire.Envelope
	nextRSN   ids.RSN
	maxRSN    ids.RSN
	replayT   node.Timer

	// Frames put aside while blocked or recovering.
	deferred    []*wire.Envelope
	blockedSpan trace.SpanRef
	rx          *wire.Envelope // the runtime's envelope, under TestingRetainRx only

	// Open replay-phase span.
	replaySpan trace.SpanRef

	// Checkpoint bookkeeping: one checkpoint is in flight at a time, and
	// cpExpAt is its delivered watermarks, captured when it was taken.
	cpBusy  bool
	cpExpAt []ids.SSN

	// Output commit (DESIGN §10).
	outSeq   uint64  // outputs requested so far (checkpointed)
	cpOutSeq uint64  // outputs covered by the last durable checkpoint
	outs     outBook // requested outputs waiting on the rule
}

var _ node.Process = (*Process)(nil)
var _ recovery.Host = (*Process)(nil)

// New returns the node.Renew of FBL process slots.
func New(par Params) node.Renew {
	par = par.withDefaults()
	return func(old node.Process) node.Process {
		p, ok := old.(*Process)
		if !ok {
			p = &Process{dets: new(det.Log), mgr: new(recovery.Manager), detect: new(failure.Detector)}
		}
		p.par = par
		return p
	}
}

// Boot implements node.Process on a zero Process that keeps its arrays, its
// determinant log, recovery manager and failure detector, all reset here.
func (p *Process) Boot(env node.Env, restart bool) {
	n, kept := env.N(), p.env != nil
	*p = Process{
		env: env, par: p.par, n: n, cfg: det.Config{N: n, F: p.par.F}, dets: p.dets,
		txDets: p.txDets, txIDs: p.txIDs[:0], out: ids.PerProc(p.out, n), in: p.in,
		sendLog: p.sendLog, incVec: p.incVec, cpExp: ids.PerProc(p.cpExp, n), scanGen: ids.PerProc(p.scanGen, n),
		mgr: p.mgr, detect: p.detect, cpExpAt: p.cpExpAt,
	}
	if !TestingKeepStaleLog || !kept {
		p.dets.Reset(p.cfg)
	}
	p.txDets.Reset()
	p.incVec.Reset(n)
	p.in.Reset(n)
	p.sendLog.Reset(n)
	if p.par.Outputs != nil {
		p.dets.OnSettled(p.noteSettled)
	}
	p.app = p.par.App(env.ID(), n)
	p.mgr.Reset(recovery.Config{
		Style:        p.par.Style,
		F:            p.par.F,
		ScopedGather: p.par.Fanout > 0,
	}, p, env, restart)
	p.detect.Reset(env.ID(), n, p.par.SuspectAfter, env.Now(), p.mgr.OnSuspect)
	if p.par.Fanout > 0 {
		p.detect.SetMonitored(p.ring(-1))
		p.succ = p.ring(+1)
	} else {
		p.succ = ids.Peers(env.ID(), n)
	}
	p.startTimers()

	if !restart {
		p.inc = 1
		p.writeIncRecord(func() {})
		p.started = true
		p.app.Start(appCtx{p})
		p.scheduleCheckpoint()
		return
	}
	// Reincarnation: restore from stable storage (recovery step 1).
	p.restore()
}

// ring returns the Fanout-sized ring neighborhood of this process: the
// successors (self+1, self+2, …) mod n for dir=+1, the predecessors for
// dir=-1. With Fanout >= n-1 (or 0) it degenerates to every peer.
func (p *Process) ring(dir int) []ids.ProcID {
	k := p.par.Fanout
	if k <= 0 || k > p.n-1 {
		k = p.n - 1
	}
	out := make([]ids.ProcID, 0, k)
	self := int(p.env.ID())
	for i := 1; i <= k; i++ {
		out = append(out, ids.ProcID(((self+dir*i)%p.n+p.n)%p.n))
	}
	return out
}

func (p *Process) startTimers() {
	// One frame for every tick and every destination, encoded again only
	// when the incarnation it carries changes (once per boot: a restart
	// learns its own while restoring). In fanout mode each process pings
	// its k ring successors, so each is monitored by its k predecessors.
	var frame storage.Image
	var frameInc ids.Incarnation
	var beat func()
	beat = func() {
		if frame.Data == nil || frameInc != p.inc {
			frameInc = p.inc
			frame = storage.Image{Data: wire.Encode(&wire.Envelope{Kind: wire.KindHeartbeat, From: p.env.ID(), FromInc: p.inc})}
		}
		p.env.MulticastFrame(p.succ, wire.KindHeartbeat, frame)
		p.detect.Tick(p.env.Now())
		p.env.After(p.par.HeartbeatEvery, beat)
	}
	p.env.After(p.par.HeartbeatEvery, beat)

	if p.cfg.Manetho() {
		var flush func()
		flush = func() {
			p.flushToStorage()
			p.env.After(storageFlushEvery, flush)
		}
		p.env.After(storageFlushEvery, flush)
	}
}

// flushToStorage streams determinants not yet held by the storage
// pseudo-process (f = n instance).
func (p *Process) flushToStorage() {
	if s := p.mgr.State(); s != recovery.StateLive && s != recovery.StateReplaying {
		return
	}
	p.txDets.SetView(p.dets.PendingView()) // f = n: pending means storage does not hold it yet
	if p.txDets.Len() == 0 {
		return
	}
	p.tx = wire.Envelope{
		Kind:    wire.KindDetsToStorage,
		FromInc: p.inc,
		DetList: &p.txDets,
	}
	p.env.Send(ids.StorageProc, &p.tx)
}

// Deliver implements node.Process. The envelope is the runtime's, so the
// handler works on a by-value copy and the buffers that outlive it store
// their own (Keep): escape analysis, not a convention, then keeps ev on the
// stack for every frame that is not kept (TestHeartbeatDeliverAllocs).
func (p *Process) Deliver(in *wire.Envelope) {
	ev := *in
	e := &ev
	if TestingRetainRx {
		p.rx = in
	}
	p.detect.Heard(e.From, p.env.Now())
	if !e.Ord.IsZero() {
		p.lam.Witness(e.Ord.Clock)
	}
	// Learn newer incarnations from any frame; reject stale application
	// frames (paper §3.2: "a receiver rejects any message that originates
	// from a previous incarnation of its sender").
	p.learnIncarnation(e.From, e.FromInc)
	if e.Kind == wire.KindApp && p.incVec.Stale(e.From, e.FromInc) {
		p.env.Metrics().Stale++
		return
	}
	// Record piggybacked determinants before anything else so our own
	// subsequent sends forward them (the causal propagation of §2.1).
	if e.Kind == wire.KindApp && len(e.Dets) > 0 {
		p.absorbDets(e.Dets)
		e.Dets = nil // merged: a Keep below has nothing left to copy
	}
	if e.Kind == wire.KindApp && p.par.Fanout > 0 {
		p.applyPiggybackGC(e)
	}

	switch e.Kind {
	case wire.KindApp:
		p.appPath(e)
	case wire.KindHeartbeat:
		// Heard() above is all a heartbeat is for.
	case wire.KindCheckpointNotice:
		p.onCheckpointNotice(e)
	case wire.KindStorageAck:
		for _, id := range e.MsgIDs {
			p.dets.AddHolder(id, ids.StorageProc)
		}
	case wire.KindReplayRequest:
		p.serveReplay(e)
	default:
		p.control(e)
	}
	// Holder knowledge only grows on the receive path, so this is the one
	// place pending outputs can become committable.
	p.checkOutputs()
}

// control hands a recovery-protocol frame to the manager, or keeps it while
// the manager defers them (see handOver).
func (p *Process) control(e *wire.Envelope) {
	if p.mgr.Defers() {
		p.deferred = append(p.deferred, p.keep(e))
		return
	}
	if !p.mgr.HandleMessage(e) {
		p.env.Metrics().Rejected++
	}
}

// handOver gives the manager the control frames kept while restoring, in
// arrival order, right after StartRecovery. The application frames are
// deferred again first: a control frame may start replay, which takes them.
func (p *Process) handOver() {
	kept := p.deferred
	p.deferred = nil
	for _, e := range kept {
		if e.Kind == wire.KindApp {
			p.deferred = append(p.deferred, e)
		}
	}
	for _, e := range kept {
		if e.Kind != wire.KindApp {
			p.control(e)
		}
	}
}

// applyPiggybackGC consumes the checkpoint watermarks riding on a fanout-
// mode application frame: the sender's determinants up to its checkpointed
// RSN are replay-dead, and our logged messages it had consumed by that
// checkpoint will never be re-requested. Both are the exact operations a
// broadcast checkpoint notice performs, delivered point-to-point instead.
func (p *Process) applyPiggybackGC(e *wire.Envelope) {
	if e.CPRsn > 0 {
		p.dets.GCReceiver(e.From, e.CPRsn)
	}
	if e.CPDseq > 0 {
		p.pruneSendLog(e.From, e.CPDseq)
	}
}

// pruneSendLog drops the logged messages to q it has consumed as of a
// durable checkpoint (dseq <= wm): it will never request them again.
func (p *Process) pruneSendLog(q ids.ProcID, wm uint64) {
	if !q.Valid(p.n) || q.IsStorage() {
		return
	}
	p.sendLog.Prune(q, wm)
}

// absorbDets merges piggybacked determinant entries and marks ourselves as
// a holder of each (we now store the receipt order in our volatile log).
func (p *Process) absorbDets(entries []det.Entry) {
	self := p.env.ID()
	for _, en := range entries {
		if err := p.dets.RecordHeld(en, self); err != nil {
			panic(fmt.Sprintf("fbl: %v: conflicting piggybacked determinant: %v", p.env.ID(), err))
		}
	}
}

// appPath routes an application frame according to the lifecycle state.
func (p *Process) appPath(e *wire.Envelope) {
	switch p.mgr.State() {
	case recovery.StateLive:
		if p.mgr.Blocked() {
			p.deferred = append(p.deferred, p.keep(e))
			return
		}
		p.deliverNow(e)
	case recovery.StateReplaying:
		p.replayAccept(e)
	default:
		// Restoring or gathering: too early to decide; buffer until replay
		// begins.
		p.deferred = append(p.deferred, p.keep(e))
	}
}

// deliverNow performs normal-path delivery in per-sender FIFO order.
func (p *Process) deliverNow(e *wire.Envelope) {
	switch p.in.Admit(e) {
	case channel.Dup:
		p.env.Metrics().Duplicate++
	case channel.Next:
		for ; e != nil; e = p.in.Pop(e.From) {
			p.consume(e, 0)
		}
	}
}

// consume delivers one application frame: it assigns the receive sequence
// number (forcedRSN overrides during replay), records the determinant, and
// hands the payload to the application.
func (p *Process) consume(e *wire.Envelope, forcedRSN ids.RSN) {
	p.in.Exp[e.From] = e.Dseq
	if forcedRSN != 0 {
		p.rsn = forcedRSN
	} else {
		p.rsn++
	}
	d := det.Determinant{
		Msg:      ids.MsgID{Sender: e.From, SSN: e.SSN},
		Receiver: p.env.ID(),
		RSN:      p.rsn,
	}
	if forcedRSN == 0 {
		if err := p.dets.RecordHeld(det.Entry{Det: d}, p.env.ID()); err != nil {
			panic(fmt.Sprintf("fbl: %v: recording own determinant: %v", p.env.ID(), err))
		}
	} else {
		// Replay: the determinant is already in the gathered log; we hold
		// it again now.
		p.dets.AddHolder(d.Msg, p.env.ID())
	}
	p.env.Metrics().Delivered++
	payload := e.PayloadImage()
	if p.par.Hooks.OnDeliver != nil {
		p.par.Hooks.OnDeliver(p.env.ID(), d.Msg, e.From, d.RSN, PayloadHash(payload))
	}
	if p.app.Handle(appCtx{p}, e.From, payload) != nil {
		p.env.Metrics().Rejected++
	}
}

// learnIncarnation records a newer incarnation of q and invalidates the
// piggyback estimate for it: a reincarnated process lost its volatile
// determinant log, so nothing can be assumed already held there.
func (p *Process) learnIncarnation(q ids.ProcID, inc ids.Incarnation) {
	if p.incVec.Bump(q, inc) {
		if q >= 0 && int(q) < p.n {
			p.scanGen[q] = -1 // offer everything pending again
		}
	}
}

// PayloadHash fingerprints a payload's logical bytes: the value Hooks.OnSend
// and OnDeliver report, whose only consumer compares two values of one run
// for equality (the cluster checker). It is FNV-1a's xor–multiply over
// 8-byte words instead of bytes, with a shift-xor after each multiply so a
// word's high bits reach the low ones (the multiply alone only carries
// upward, and two flipped top bits eight bytes apart would cancel), then the
// tail a byte at a time. Every step is a bijection of h, so equal-length
// payloads that differ in one word or one tail byte never collide. The
// padding is folded in as the zeros it stands for, without building them:
// the hash is that of the logical bytes. Not stable across versions; the
// values never leave the run.
func PayloadHash(im storage.Image) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	b, zeros := im.Data, im.Pad
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
		h ^= h >> 29
	}
	if len(b) > 0 && len(b)+zeros >= 8 { // the data's last bytes, then zeros
		var word [8]byte
		copy(word[:], b)
		h = (h ^ binary.LittleEndian.Uint64(word[:])) * prime
		h ^= h >> 29
		b, zeros = nil, zeros-(8-len(b))
	}
	for ; zeros >= 8; zeros -= 8 { // a zero word: xor with 0 is the identity
		h *= prime
		h ^= h >> 29
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	for ; zeros > 0; zeros-- {
		h *= prime
	}
	return h
}
