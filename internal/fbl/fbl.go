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

	"rollrec/internal/det"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/trace"
	"rollrec/internal/vclock"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// Params configures one protocol process.
type Params struct {
	// N is the number of application processes; F the failure budget
	// (F >= N selects the f = n instance with the storage pseudo-process).
	N int
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
	// RetryEvery is the recovery-protocol retransmission period.
	RetryEvery time.Duration
	// StorageFlushEvery is the determinant streaming period to the storage
	// pseudo-process (f = n only).
	StorageFlushEvery time.Duration
	// SnapshotCPUPerByte charges checkpoint serialization cost.
	SnapshotCPUPerByte time.Duration
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
	if p.RetryEvery <= 0 {
		p.RetryEvery = time.Second
	}
	if p.StorageFlushEvery <= 0 {
		p.StorageFlushEvery = 100 * time.Millisecond
	}
	if p.SnapshotCPUPerByte < 0 {
		p.SnapshotCPUPerByte = 0
	}
	return p
}

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

// Mode is the process lifecycle state.
type Mode int

const (
	// ModeLive: normal operation.
	ModeLive Mode = iota
	// ModeRestoring: reading the checkpoint from stable storage.
	ModeRestoring
	// ModeRecovering: running the recovery protocol (waiting or leading).
	ModeRecovering
	// ModeReplaying: re-consuming logged deliveries.
	ModeReplaying
)

// String names the mode.
func (m Mode) String() string {
	return [...]string{"live", "restoring", "recovering", "replaying"}[m]
}

type servedMark struct {
	inc ids.Incarnation
	max uint64
}

// Process is one FBL protocol instance hosting one application. It
// implements node.Process; a crash discards it entirely (volatile state)
// while its stable store persists in the runtime.
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
	mode    Mode

	// Send path.
	ssn     ids.SSN
	dseqOut []uint64
	sendLog []*sendWindow // per destination; nil until the first send to it

	// Receive path.
	rsn     ids.RSN
	expDseq []uint64
	oooBuf  []map[uint64]*wire.Envelope

	dets  *det.Log
	cpRSN ids.RSN // delivery watermark covered by the last durable checkpoint
	// cpExpDseq is the per-sender consumed watermark as of the last durable
	// checkpoint (the same snapshot a checkpoint notice's SSNWatermarks
	// carries). Fanout mode piggybacks it on application sends so receivers
	// can prune their send logs without a broadcast notice. It must never
	// track the live expDseq: a watermark beyond the durable checkpoint
	// would let senders drop messages we still need for replay.
	cpExpDseq []uint64

	// scanGen is, per destination, the determinant-log generation at our
	// last piggyback scan for it: the next transmit offers what changed
	// since. This one integer is the dependency-matrix estimate of the FBL
	// protocols [Alvisi–Marzullo] — an entry the receiver was already
	// offered with the same holders is not piggybacked again. -1 after the
	// destination reincarnated (its volatile log died with it): offer the
	// whole pending set again.
	scanGen []int
	// piggy and piggyWords are transmit's scratch: the entries one frame
	// piggybacks and the arena their holder sets are views into, overwritten
	// by the next transmit. tx is the envelope it sends them in.
	piggy      []det.Entry
	piggyWords []uint64
	tx         wire.Envelope
	// replayServed remembers, per requester, the highest send-log dseq
	// already retransmitted to a given incarnation, so periodic replay-
	// request retries do not flood the recovering process with redundant
	// copies (the requester's CPU absorbing duplicates would otherwise
	// dominate its replay).
	replayServed []servedMark

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

	// Live-side blocking and recovery-time buffering.
	blocked     bool
	deferred    []*wire.Envelope
	blockedSpan trace.SpanRef

	// Open replay-phase span.
	replaySpan trace.SpanRef

	// Checkpoint bookkeeping.
	cpBusy bool

	// Output commit (DESIGN §10).
	outSeq      uint64     // outputs requested so far (checkpointed)
	cpOutSeq    uint64     // outputs covered by the last durable checkpoint
	pendingOuts []*outWait // requested, rule not yet satisfied, seq-ascending
	// outWaiters maps each awaited determinant id to the outputs waiting on
	// it; settled collects the ids the determinant log reported as having
	// left its pending set since the last checkOutputs.
	outWaiters map[ids.MsgID][]*outWait
	settled    []ids.MsgID

	// Observability (volatile, test-only).
	journal []det.Determinant
}

var _ node.Process = (*Process)(nil)
var _ recovery.Host = (*Process)(nil)

// New returns a node.Factory producing protocol instances for one slot.
func New(par Params) node.Factory {
	par = par.withDefaults()
	return func() node.Process { return &Process{par: par} }
}

// Boot implements node.Process.
func (p *Process) Boot(env node.Env, restart bool) {
	p.env = env
	p.n = env.N()
	p.cfg = det.Config{N: p.n, F: p.par.F}
	p.incVec = vclock.NewIncVector(p.n)
	p.dets = det.NewLog(p.cfg)
	p.dseqOut = make([]uint64, p.n)
	p.expDseq = make([]uint64, p.n)
	p.cpExpDseq = make([]uint64, p.n)
	// The per-peer logs and maps are allocated lazily (sendLogFor,
	// oooBufFor): at n=1024 eager ones cost millions of allocations per boot
	// cluster-wide, almost all for peers a process never exchanges traffic
	// with.
	p.sendLog = make([]*sendWindow, p.n)
	p.oooBuf = make([]map[uint64]*wire.Envelope, p.n)
	p.scanGen = make([]int, p.n)
	p.replayServed = make([]servedMark, p.n)
	if p.par.Outputs != nil {
		p.outWaiters = make(map[ids.MsgID][]*outWait)
		p.dets.OnSettled(p.noteSettled)
	}
	p.app = p.par.App(env.ID(), p.n)
	p.mgr = recovery.NewManager(recovery.Config{
		Style:        p.par.Style,
		F:            p.par.F,
		RetryEvery:   p.par.RetryEvery,
		ScopedGather: p.par.Fanout > 0,
	}, p, env)
	p.detect = failure.NewDetector(env.ID(), p.n, p.par.SuspectAfter, env.Now(),
		func(q ids.ProcID) { p.mgr.OnSuspect(q) })
	if p.par.Fanout > 0 {
		p.detect.SetMonitored(p.ring(-1))
		p.succ = p.ring(+1)
	} else {
		p.succ = ids.Peers(env.ID(), p.n)
	}
	p.startTimers()

	if !restart {
		p.inc = 1
		p.writeIncRecord(func() {})
		p.mode = ModeLive
		p.started = true
		p.app.Start(appCtx{p})
		p.scheduleCheckpoint()
		return
	}
	// Reincarnation: restore from stable storage (recovery step 1).
	p.mode = ModeRestoring
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

// sendLogFor and oooBufFor lazily allocate the per-peer log and map; see
// Boot.
func (p *Process) sendLogFor(to ids.ProcID) *sendWindow {
	if p.sendLog[to] == nil {
		p.sendLog[to] = new(sendWindow)
	}
	return p.sendLog[to]
}

func (p *Process) oooBufFor(from ids.ProcID) map[uint64]*wire.Envelope {
	if p.oooBuf[from] == nil {
		p.oooBuf[from] = make(map[uint64]*wire.Envelope)
	}
	return p.oooBuf[from]
}

func (p *Process) startTimers() {
	// One frame for every tick and every destination, encoded again only
	// when the incarnation it carries changes (once per boot: a restart
	// learns its own while restoring). In fanout mode each process pings
	// its k ring successors, so each is monitored by its k predecessors.
	var frame []byte
	var frameInc ids.Incarnation
	var beat func()
	beat = func() {
		if frame == nil || frameInc != p.inc {
			frameInc = p.inc
			frame = wire.Encode(&wire.Envelope{Kind: wire.KindHeartbeat, From: p.env.ID(), FromInc: p.inc})
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
			p.env.After(p.par.StorageFlushEvery, flush)
		}
		p.env.After(p.par.StorageFlushEvery, flush)
	}
}

// flushToStorage streams determinants not yet held by the storage
// pseudo-process (f = n instance).
func (p *Process) flushToStorage() {
	if p.mode != ModeLive && p.mode != ModeReplaying {
		return
	}
	pending := p.dets.Pending() // f = n: pending means storage does not hold it yet
	if len(pending) == 0 {
		return
	}
	p.env.Send(ids.StorageProc, &wire.Envelope{
		Kind:    wire.KindDetsToStorage,
		FromInc: p.inc,
		Dets:    pending,
	})
}

// Deliver implements node.Process. The envelope is the runtime's, so the
// handler works on a by-value copy and the buffers that outlive it store
// their own (Keep): escape analysis, not a convention, then keeps ev on the
// stack for every frame that is not kept (TestHeartbeatDeliverAllocs).
func (p *Process) Deliver(in *wire.Envelope) {
	ev := *in
	e := &ev
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
		if !p.mgr.HandleMessage(e) {
			p.env.Logf("fbl: unhandled kind %v from %v", e.Kind, e.From)
		}
	}
	// Holder knowledge only grows on the receive path, so this is the one
	// place pending outputs can become committable.
	p.checkOutputs()
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
	p.sendLog[q].prune(wm)
}

// absorbDets merges piggybacked determinant entries and marks ourselves as
// a holder of each (we now store the receipt order in our volatile log).
//
//rollvet:hotpath
func (p *Process) absorbDets(entries []det.Entry) {
	self := p.env.ID()
	for _, en := range entries {
		if err := p.dets.RecordHeld(en, self); err != nil {
			panic(fmt.Sprintf("fbl: %v: conflicting piggybacked determinant: %v", p.env.ID(), err))
		}
	}
}

// appPath routes an application frame according to the lifecycle mode.
func (p *Process) appPath(e *wire.Envelope) {
	switch p.mode {
	case ModeLive:
		if p.blocked {
			p.deferred = append(p.deferred, e.Keep())
			return
		}
		p.deliverNow(e)
	case ModeReplaying:
		p.replayAccept(e)
	case ModeRestoring, ModeRecovering:
		// Too early to decide: buffer until replay begins.
		p.deferred = append(p.deferred, e.Keep())
	}
}

// deliverNow performs normal-path delivery with per-sender FIFO
// de-duplication.
func (p *Process) deliverNow(e *wire.Envelope) {
	from := int(e.From)
	exp := p.expDseq[from]
	switch {
	case e.Dseq <= exp:
		p.env.Metrics().Duplicate++
		return
	case e.Dseq > exp+1:
		p.oooBufFor(e.From)[e.Dseq] = e.Keep()
		return
	}
	p.consume(e, 0)
	// Drain any buffered successors that became contiguous.
	for {
		next, ok := p.oooBuf[from][p.expDseq[from]+1]
		if !ok {
			break
		}
		delete(p.oooBuf[from], p.expDseq[from]+1)
		p.consume(next, 0)
	}
}

// consume delivers one application frame: it assigns the receive sequence
// number (forcedRSN overrides during replay), records the determinant, and
// hands the payload to the application.
func (p *Process) consume(e *wire.Envelope, forcedRSN ids.RSN) {
	from := int(e.From)
	p.expDseq[from] = e.Dseq
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
	p.journal = append(p.journal, d)
	p.env.Metrics().Delivered++
	if p.par.Hooks.OnDeliver != nil {
		p.par.Hooks.OnDeliver(p.env.ID(), d.Msg, e.From, d.RSN, hashBytes(e.Payload))
	}
	p.app.Handle(appCtx{p}, e.From, e.Payload)
}

// learnIncarnation records a newer incarnation of q and invalidates the
// piggyback estimate for it: a reincarnated process lost its volatile
// determinant log, so nothing can be assumed already held there.
//
//rollvet:hotpath
func (p *Process) learnIncarnation(q ids.ProcID, inc ids.Incarnation) {
	if p.incVec.Bump(q, inc) {
		if q >= 0 && int(q) < p.n {
			p.scanGen[q] = -1 // offer everything pending again
		}
	}
}

// hashBytes fingerprints a payload for the hooks, whose only consumer
// compares two values of one run for equality (the cluster checker): FNV-1a's
// xor–multiply over 8-byte words instead of bytes, with a shift-xor after
// each multiply so a word's high bits reach the low ones (the multiply alone
// only carries upward, and two flipped top bits eight bytes apart would
// cancel), then the tail a byte at a time. Every step is a bijection of h, so
// equal-length payloads that differ in one word or one tail byte never
// collide. Not stable across versions; the values never leave the run.
func hashBytes(b []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
		h ^= h >> 29
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}
