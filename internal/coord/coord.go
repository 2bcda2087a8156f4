package coord

import (
	"fmt"
	"slices"
	"time"

	"rollrec/internal/channel"
	"rollrec/internal/ids"
	"rollrec/internal/mutant"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// Params configures one coordinated-checkpointing process.
type Params struct {
	// App builds the hosted application.
	App workload.Factory
	// SnapshotEvery is the global snapshot period (driven by process 0).
	SnapshotEvery time.Duration
	// StatePad models the process image size per snapshot.
	StatePad int
	// Outputs receives the output-commit lifecycle (nil disables tracking;
	// Ctx.Output is then a no-op).
	Outputs output.Sink
}

// Stable-store keys.
const (
	keySnapPrefix = "clsnap-"
	keyCommitted  = "clcommitted"
)

// Process is one coordinated-checkpointing protocol instance.
type Process struct {
	env   node.Env
	par   Params
	n     int
	peers []ids.ProcID // everyone else, in id order: the markers' and rollbacks' destinations

	app   workload.App
	epoch uint32 // rollback epoch; frames from older epochs are stale

	// Per-pair FIFO channels (the transport every family shares).
	out channel.Out
	in  channel.In

	delivered int64 // deliveries in the current epoch (for lost-work metrics)

	// Chandy–Lamport state for the snapshot in progress.
	snapActive       bool
	snapID           uint32
	recording        []bool
	recorded         [][]recordedMsg
	openChans        int
	snap             *wire.Writer        // image in progress: local state, then recorded
	initiatorWaiting map[ids.ProcID]bool // initiator only

	committedID uint32

	// Rollback-in-progress state: frames from the new epoch that arrive
	// before this process has finished restoring are buffered, otherwise
	// they would be consumed into the doomed pre-rollback state and lost.
	rollingBack bool
	futureBuf   []*wire.Envelope

	// Output commit (DESIGN §10).
	outSeq      uint64      // outputs requested so far (part of the snapshot)
	pendingOuts []coordWait // requested, not yet covered by a committed snapshot

	// tx is the envelope every send is built in: Send serialises it at call
	// time, so the next send overwrites it whole.
	tx wire.Envelope
}

type recordedMsg struct {
	from    ids.ProcID
	ssn     ids.SSN
	dseq    uint64
	payload storage.Image
}

var _ node.Process = (*Process)(nil)

// New returns the node.Renew of coordinated-checkpointing process slots.
func New(par Params) node.Renew {
	if par.SnapshotEvery <= 0 {
		par.SnapshotEvery = 2 * time.Second
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
	*p = Process{env: env, par: p.par, n: n, peers: ids.Peers(env.ID(), n),
		out: ids.PerProc(p.out, n), in: p.in, recording: p.recording, recorded: p.recorded}
	p.in.Reset(n)
	p.app = p.par.App(env.ID(), p.n)

	if env.ID() == 0 {
		var tick func()
		tick = func() {
			p.startSnapshot()
			p.env.After(p.par.SnapshotEvery, tick)
		}
		env.After(p.par.SnapshotEvery, tick)
	}

	if !restart {
		p.epoch = 1
		p.app.Start(appCtx{p})
		return
	}
	// Crash recovery: read the committed line and order a global rollback.
	p.rollingBack = true
	env.ReadStable(keyCommitted, func(data storage.Image, ok bool) {
		if tr := env.Metrics().CurrentRecovery(); tr != nil {
			tr.RestoredAt = env.Now()
		}
		id, epoch := uint32(0), uint32(1)
		if ok {
			id, epoch = parseCommitted(data)
		}
		p.committedID = id
		p.epoch = p.nextEpoch(epoch)
		p.persistEpoch()
		p.broadcastRollback(id, true)
		if id == 0 {
			// No snapshot was ever committed (a record with id 0 only
			// persists an earlier restart's epoch): the whole cluster
			// restarts from scratch, as restoreLine(0) does for the living.
			p.restartFromScratch()
			return
		}
		p.restoreSnapshot(id)
	})
}

// nextEpoch allocates the next rollback epoch: the smallest value that is
// both strictly greater than every epoch this process has seen and congruent
// to its own id mod n. The residue makes concurrently-allocated epochs
// distinct: two processes restarting from overlapping outages each know only
// their own (possibly stale) persisted epoch, and under naive +1 allocation
// both would pick the same number — the second recovery's rollback broadcast
// would then be dropped as stale everywhere, leaving the cluster running
// with the channel state the second crash destroyed. (Found by the
// internal/explore schedule explorer.)
func (p *Process) nextEpoch(seen uint32) uint32 {
	n := uint32(p.n)
	return (seen/n+1)*n + uint32(p.env.ID())
}

// persistEpoch durably records the current epoch alongside the committed
// snapshot id, so a later crash resumes from the right epoch.
func (p *Process) persistEpoch() {
	w := wire.NewWriter(8)
	w.U32(p.committedID)
	w.U32(p.epoch)
	p.env.WriteStable(keyCommitted, storage.Image{Data: w.Frame()}, nil)
}

// rollbackRestartOrigin tags (in the otherwise-unused Dseq field) a rollback
// broadcast by a process that just restarted from a crash, as opposed to one
// relayed by a live peer. Only restart-origin rollbacks may trigger a relay
// when they arrive stale — relays never do, which bounds the cascade.
const rollbackRestartOrigin = 1

func (p *Process) broadcastRollback(snapID uint32, restartOrigin bool) {
	var tag uint64
	if restartOrigin && mutant.On != mutant.StripRestartOrigin {
		tag = rollbackRestartOrigin
	}
	p.tx = wire.Envelope{
		Kind:    wire.KindRollback,
		FromInc: ids.Incarnation(p.epoch),
		Round:   snapID,
		Dseq:    tag,
	}
	p.env.Multicast(p.peers, &p.tx)
}

// restartFromScratch rebuilds the initial state (used when no snapshot was
// ever committed).
func (p *Process) restartFromScratch() {
	lost := p.delivered
	p.resetVolatile()
	p.app = p.par.App(p.env.ID(), p.n)
	p.app.Start(appCtx{p})
	p.finishRollback(lost)
}

func (p *Process) resetVolatile() {
	clear(p.out)
	p.in.Reset(p.n)
	p.snapActive = false
	p.delivered = 0
	// The rolled-back execution's uncommitted outputs are abandoned with
	// it; the restored outSeq (decoded from the snapshot, 0 from scratch)
	// is where re-execution resumes requesting.
	p.outSeq = 0
	p.pendingOuts = nil
}

// drainFuture re-delivers frames that arrived for the new epoch while the
// rollback was in progress.
func (p *Process) drainFuture() {
	p.rollingBack = false
	buf := p.futureBuf
	p.futureBuf = nil
	for _, e := range buf {
		p.Deliver(e)
	}
}

// finishRollback stamps the open recovery trace, if any: a live process
// rolled back from scratch may hold a finished one from an earlier crash.
func (p *Process) finishRollback(lost int64) {
	if tr := p.env.Metrics().CurrentRecovery(); tr != nil && tr.ReplayedAt == 0 {
		tr.GatheredAt = p.env.Now()
		tr.ReplayedAt = p.env.Now()
		tr.Incarnation = p.epoch
	}
	p.noteRollback(lost)
	p.drainFuture()
}

// noteRollback counts a completed rollback and the deliveries discarded with
// the abandoned execution, and marks it on the trace.
func (p *Process) noteRollback(lost int64) {
	met := p.env.Metrics()
	met.Rollbacks++
	met.LostDeliveries += lost
	p.env.Tracer().Instant(p.env.Now(), int32(p.env.ID()), trace.EvRollback,
		trace.Tag{Inc: p.epoch, Arg: lost})
}

// restoreSnapshot reads the per-process state of the committed snapshot and
// re-injects its recorded channel messages.
func (p *Process) restoreSnapshot(id uint32) {
	p.env.ReadStable(fmt.Sprintf("%s%d", keySnapPrefix, id), func(data storage.Image, ok bool) {
		if !ok {
			panic(fmt.Sprintf("coord: %v: committed snapshot %d missing", p.env.ID(), id))
		}
		lost := p.delivered
		p.resetVolatile()
		recorded := p.mustDecodeSnapshot(data)
		p.commitRestored()
		p.finishRollback(lost)
		// Re-inject the in-flight messages the snapshot recorded: they are
		// part of the global state.
		for _, m := range recorded {
			p.deliverApp(&wire.Envelope{
				Kind:    wire.KindApp,
				From:    m.from,
				FromInc: ids.Incarnation(p.epoch),
				SSN:     m.ssn,
				Dseq:    m.dseq,
				Payload: m.payload.Data,
				Pad:     uint32(m.payload.Pad),
			})
		}
	})
}

// Phase is recovering while the process rolls back to a committed snapshot,
// else live; read-only, for the timeline phase lane and the liveness check.
func (p *Process) Phase() node.Phase {
	if p.rollingBack {
		return node.PhaseRecovering
	}
	return node.PhaseLive
}

// Deliver implements node.Process on a by-value copy of the runtime's
// envelope; the buffers that outlive it (futureBuf, the channel's held
// frames) Keep their own.
func (p *Process) Deliver(in *wire.Envelope) {
	ev := *in
	e := &ev
	if e.Kind == wire.KindRollback {
		p.onRollback(e)
		return
	}
	// Frames from a future epoch arriving before our own rollback finishes
	// must wait: consuming them into the doomed state would lose them.
	if p.rollingBack || uint32(e.FromInc) > p.epoch {
		p.futureBuf = append(p.futureBuf, e.Keep())
		return
	}
	switch e.Kind {
	case wire.KindApp:
		if uint32(e.FromInc) < p.epoch {
			p.env.Metrics().Stale++
			return
		}
		p.deliverApp(e)
	case wire.KindMarker:
		if uint32(e.FromInc) < p.epoch {
			return
		}
		p.onMarker(e)
	case wire.KindSnapState:
		p.onSnapState(e)
	case wire.KindSnapCommit:
		if uint32(e.FromInc) < p.epoch {
			return
		}
		p.commit(e.Round)
	case wire.KindHeartbeat:
		// Liveness only; nothing to do.
	default:
		// Other protocols' kinds (FBL storage traffic, optimistic
		// recovery rounds) never reach a coordinated-checkpointing
		// cluster; one that does is counted, not consumed.
		p.env.Metrics().Rejected++
	}
}

// onRollback makes a live process restore the recovery line: the global
// rollback every coordinated-checkpointing failure forces.
func (p *Process) onRollback(e *wire.Envelope) {
	if p.rollingBack {
		// A rollback arriving mid-rollback must not be dropped: buffering
		// it with the future frames lets a concurrent recovery's (possibly
		// higher-epoch) order win once ours completes.
		if uint32(e.FromInc) > p.epoch {
			p.futureBuf = append(p.futureBuf, e.Keep())
		}
		return
	}
	if uint32(e.FromInc) <= p.epoch {
		// Stale — unless it came straight from a restarting process. A
		// restarter that was down through the current epoch's rollback
		// broadcast allocates from a stale base, so its own broadcast is
		// fenced everywhere; but the crash still destroyed channel and
		// process state the running epoch depends on. Any live peer that
		// notices relays a fresh global rollback at an epoch the restarter
		// is guaranteed to honor.
		if e.Dseq == rollbackRestartOrigin {
			p.relayRollback()
		}
		return
	}
	p.epoch = uint32(e.FromInc)
	p.committedID = e.Round
	p.rollingBack = true
	p.persistEpoch()
	p.restoreLine(e.Round)
}

// relayRollback starts a fresh global rollback on behalf of a process whose
// own restart-origin broadcast arrived stale (see onRollback): allocate a
// strictly newer epoch, broadcast it, and roll back to the committed line
// like everyone else.
func (p *Process) relayRollback() {
	p.epoch = p.nextEpoch(p.epoch)
	p.rollingBack = true
	p.persistEpoch()
	p.broadcastRollback(p.committedID, false)
	p.restoreLine(p.committedID)
}

// restoreLine rolls a live process back to the committed line (snapID 0 =
// from scratch) for the already-installed epoch.
func (p *Process) restoreLine(snapID uint32) {
	lost := p.delivered
	// Live processes also pay: the blocked interval is the stable-storage
	// restore they are forced through.
	p.env.Metrics().BlockStart(p.env.Now())
	if snapID == 0 {
		p.env.Metrics().BlockEnd(p.env.Now())
		p.restartFromScratch()
		return
	}
	p.env.ReadStable(fmt.Sprintf("%s%d", keySnapPrefix, snapID), func(data storage.Image, ok bool) {
		p.env.Metrics().BlockEnd(p.env.Now())
		if !ok {
			panic(fmt.Sprintf("coord: %v: snapshot %d missing on rollback", p.env.ID(), snapID))
		}
		p.resetVolatile()
		recorded := p.mustDecodeSnapshot(data)
		p.commitRestored()
		p.noteRollback(lost)
		p.drainFuture()
		for _, m := range recorded {
			p.deliverApp(&wire.Envelope{
				Kind: wire.KindApp, From: m.from,
				FromInc: ids.Incarnation(p.epoch),
				SSN:     m.ssn, Dseq: m.dseq,
				Payload: m.payload.Data, Pad: uint32(m.payload.Pad),
			})
		}
	})
}

// deliverApp is the normal delivery path in per-pair FIFO order; during an
// active snapshot it first records in-flight messages per channel.
func (p *Process) deliverApp(e *wire.Envelope) {
	from := int(e.From)
	if p.snapActive && from >= 0 && from < p.n && p.recording[from] {
		p.recorded[from] = append(p.recorded[from], recordedMsg{
			from: e.From, ssn: e.SSN, dseq: e.Dseq,
			// a copy: the frame is the runtime's once Deliver returns
			payload: storage.Image{Data: slices.Clone(e.Payload), Pad: int(e.Pad)},
		})
	}
	switch p.in.Admit(e) {
	case channel.Dup:
		p.env.Metrics().Duplicate++
	case channel.Next:
		for ; e != nil; e = p.in.Pop(e.From) {
			p.consume(e)
		}
	}
}

func (p *Process) consume(e *wire.Envelope) {
	p.in.Exp[e.From] = e.Dseq
	p.delivered++
	p.env.Metrics().Delivered++
	if p.app.Handle(appCtx{p}, e.From, e.PayloadImage()) != nil {
		p.env.Metrics().Rejected++
	}
}

// appCtx implements workload.Ctx.
type appCtx struct{ p *Process }

func (c appCtx) Self() ids.ProcID { return c.p.env.ID() }
func (c appCtx) N() int           { return c.p.n }
func (c appCtx) Work(d int64)     { c.p.env.Busy(time.Duration(d)) }

// Send transmits an application payload (no logging: this protocol's whole
// point is that failure-free operation is bare).
func (c appCtx) Send(to ids.ProcID, payload storage.Image) {
	p := c.p
	p.tx = wire.Envelope{
		Kind:    wire.KindApp,
		FromInc: ids.Incarnation(p.epoch),
		Dseq:    p.out.Next(to),
		Payload: payload.Data,
		Pad:     uint32(payload.Pad),
	}
	p.env.Send(to, &p.tx)
}
