package coord

import (
	"fmt"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// Params configures one coordinated-checkpointing process.
type Params struct {
	// N is the number of application processes.
	N int
	// App builds the hosted application.
	App workload.Factory
	// SnapshotEvery is the global snapshot period (driven by process 0).
	SnapshotEvery time.Duration
	// StatePad models the process image size per snapshot.
	StatePad int
	// HeartbeatEvery / SuspectAfter drive failure detection (any suspected
	// peer triggers nothing here — the watchdog restart of the crashed
	// process is what initiates the rollback).
	HeartbeatEvery time.Duration
	// Outputs receives the output-commit lifecycle (nil disables tracking;
	// Ctx.Output is then a no-op).
	Outputs output.Sink
	// Hooks observe rollbacks for the harness.
	Hooks Hooks
}

// Hooks are optional observation callbacks.
type Hooks struct {
	// OnRollback fires when a process completes a rollback; lost is the
	// number of deliveries discarded with the abandoned execution.
	OnRollback func(self ids.ProcID, epoch uint32, lost int64)
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

	app     workload.App
	started bool
	epoch   uint32 // rollback epoch; frames from older epochs are stale

	// Per-pair FIFO bookkeeping (same scheme as the FBL engine).
	dseqOut []uint64
	expDseq []uint64
	oooBuf  []map[uint64]*wire.Envelope

	delivered int64 // deliveries in the current epoch (for lost-work metrics)
	sinceSnap int64 // deliveries since the last committed snapshot

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
}

type recordedMsg struct {
	from    ids.ProcID
	ssn     ids.SSN
	dseq    uint64
	payload []byte
}

var _ node.Process = (*Process)(nil)

// New returns a node.Factory for coordinated-checkpointing processes.
func New(par Params) node.Factory {
	if par.HeartbeatEvery <= 0 {
		par.HeartbeatEvery = 250 * time.Millisecond
	}
	if par.SnapshotEvery <= 0 {
		par.SnapshotEvery = 2 * time.Second
	}
	return func() node.Process { return &Process{par: par} }
}

// Boot implements node.Process.
func (p *Process) Boot(env node.Env, restart bool) {
	p.env = env
	p.n = env.N()
	p.peers = ids.Peers(env.ID(), p.n)
	p.dseqOut = make([]uint64, p.n)
	p.expDseq = make([]uint64, p.n)
	p.oooBuf = make([]map[uint64]*wire.Envelope, p.n)
	for i := range p.oooBuf {
		p.oooBuf[i] = make(map[uint64]*wire.Envelope)
	}
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
		p.started = true
		p.app.Start(appCtx{p})
		return
	}
	// Crash recovery: read the committed line and order a global rollback.
	p.rollingBack = true
	env.ReadStable(keyCommitted, func(data storage.Image, ok bool) {
		if tr := env.Metrics().CurrentRecovery(); tr != nil {
			tr.RestoredAt = env.Now()
		}
		if !ok {
			// Crashed before any committed snapshot: the whole cluster
			// restarts from scratch.
			p.epoch = p.nextEpoch(1)
			p.persistEpoch()
			p.broadcastRollback(0, true)
			p.restartFromScratch()
			return
		}
		id, epoch := parseCommitted(data)
		p.committedID = id
		p.epoch = p.nextEpoch(epoch)
		p.persistEpoch()
		p.broadcastRollback(id, true)
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
	if restartOrigin {
		tag = rollbackRestartOrigin
	}
	p.env.Multicast(p.peers, &wire.Envelope{
		Kind:    wire.KindRollback,
		FromInc: ids.Incarnation(p.epoch),
		Round:   snapID,
		Dseq:    tag,
	})
}

// restartFromScratch rebuilds the initial state (used when no snapshot was
// ever committed).
func (p *Process) restartFromScratch() {
	lost := p.delivered
	p.resetVolatile()
	p.app = p.par.App(p.env.ID(), p.n)
	p.started = true
	p.app.Start(appCtx{p})
	p.finishRollback(lost)
}

func (p *Process) resetVolatile() {
	p.dseqOut = make([]uint64, p.n)
	p.expDseq = make([]uint64, p.n)
	for i := range p.oooBuf {
		p.oooBuf[i] = make(map[uint64]*wire.Envelope)
	}
	p.snapActive = false
	p.delivered = 0
	p.sinceSnap = 0
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

func (p *Process) finishRollback(lost int64) {
	if tr := p.env.Metrics().CurrentRecovery(); tr != nil {
		tr.GatheredAt = p.env.Now()
		tr.ReplayedAt = p.env.Now()
		tr.Incarnation = p.epoch
	}
	if p.par.Hooks.OnRollback != nil {
		p.par.Hooks.OnRollback(p.env.ID(), p.epoch, lost)
	}
	p.env.Logf("coord: rolled back to snapshot %d (epoch %d, %d deliveries lost)",
		p.committedID, p.epoch, lost)
	p.drainFuture()
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
				Payload: m.payload,
			})
		}
	})
}

// Recovering reports whether the process is currently rolling back to a
// committed snapshot; read-only, for the timeline phase lane.
func (p *Process) Recovering() bool { return p.rollingBack }

// Deliver implements node.Process on a by-value copy of the runtime's
// envelope; the buffers that outlive it (futureBuf, oooBuf) Keep their own.
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
		// cluster; dropping them is deliberate, not a missed dispatch.
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
	p.env.Logf("coord: relaying rollback for a stale restarter (epoch %d, snapshot %d)",
		p.epoch, p.committedID)
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
		if p.par.Hooks.OnRollback != nil {
			p.par.Hooks.OnRollback(p.env.ID(), p.epoch, lost)
		}
		p.env.Logf("coord: live rollback to snapshot %d (epoch %d, %d deliveries lost)",
			p.committedID, p.epoch, lost)
		p.drainFuture()
		for _, m := range recorded {
			p.deliverApp(&wire.Envelope{
				Kind: wire.KindApp, From: m.from,
				FromInc: ids.Incarnation(p.epoch),
				SSN:     m.ssn, Dseq: m.dseq, Payload: m.payload,
			})
		}
	})
}

// deliverApp is the normal delivery path with per-pair FIFO dedup; during
// an active snapshot it also records in-flight messages per channel.
func (p *Process) deliverApp(e *wire.Envelope) {
	from := int(e.From)
	if p.snapActive && from >= 0 && from < p.n && p.recording[from] {
		p.recorded[from] = append(p.recorded[from], recordedMsg{
			from: e.From, ssn: e.SSN, dseq: e.Dseq,
			payload: append([]byte(nil), e.Payload...),
		})
	}
	exp := p.expDseq[from]
	switch {
	case e.Dseq <= exp:
		p.env.Metrics().Duplicate++
		return
	case e.Dseq > exp+1:
		p.oooBuf[from][e.Dseq] = e.Keep()
		return
	}
	p.consume(e)
	for {
		next, ok := p.oooBuf[from][p.expDseq[from]+1]
		if !ok {
			break
		}
		delete(p.oooBuf[from], p.expDseq[from]+1)
		p.consume(next)
	}
}

func (p *Process) consume(e *wire.Envelope) {
	p.expDseq[e.From] = e.Dseq
	p.delivered++
	p.sinceSnap++
	p.env.Metrics().Delivered++
	p.app.Handle(appCtx{p}, e.From, e.Payload)
}

// appCtx implements workload.Ctx.
type appCtx struct{ p *Process }

func (c appCtx) Self() ids.ProcID { return c.p.env.ID() }
func (c appCtx) N() int           { return c.p.n }
func (c appCtx) Work(d int64)     { c.p.env.Busy(time.Duration(d)) }
func (c appCtx) Logf(format string, args ...any) {
	c.p.env.Logf(format, args...)
}

// Send transmits an application payload (no logging: this protocol's whole
// point is that failure-free operation is bare).
func (c appCtx) Send(to ids.ProcID, payload []byte) {
	p := c.p
	p.dseqOut[to]++
	p.env.Send(to, &wire.Envelope{
		Kind:    wire.KindApp,
		FromInc: ids.Incarnation(p.epoch),
		Dseq:    p.dseqOut[to],
		Payload: payload,
	})
}
