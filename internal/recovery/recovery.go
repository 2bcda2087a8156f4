// Package recovery implements the paper's new recovery algorithm (§3) for
// the Family-Based Logging protocols, together with the blocking baseline
// and a Manetho-mode variant used by the evaluation.
//
// The algorithm in one paragraph (paper §3.3–3.4): a process that restarts
// after a crash restores its checkpoint, increments its incarnation, and
// acquires a system-wide monotonic recovery ordinal. The recovering process
// with the lowest ordinal becomes the *recovery leader*. The leader first
// collects the incarnation numbers of every recovering process (step 4),
// then sends every live process a depinfo request carrying the resulting
// incarnation vector (step 5); a live process installs the vector — which
// makes it reject stale messages from failed incarnations — and replies with
// its determinant log, *without blocking*. If a live process fails before
// replying, the leader restarts the gather with an updated vector; if the
// leader fails, the next ordinal takes over. Finally the leader distributes
// the aggregated depinfo to every recovering process (step 6), which then
// replay their executions concurrently.
//
// The ordinal is realized as a Lamport-timestamped announcement broadcast
// (ord = (clock, pid)); the paper only requires a monotonic total order with
// a takeover rule, which this provides.
package recovery

import (
	"fmt"
	"sort"
	"time"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/trace"
	"rollrec/internal/vclock"
	"rollrec/internal/wire"
)

// Style selects the recovery algorithm variant under measurement.
type Style int

const (
	// NonBlocking is the paper's new algorithm: live processes answer
	// depinfo requests immediately and keep delivering application messages
	// throughout recovery.
	NonBlocking Style = iota
	// Blocking is the baseline the paper compares against: a live process
	// stops delivering application messages from the moment it receives the
	// depinfo request until the leader announces completion.
	Blocking
	// Manetho additionally requires each live process to record its reply
	// on stable storage before sending it (paper §2.2's description of the
	// Manetho recovery protocol), adding a synchronous storage write to the
	// critical path of every gather.
	Manetho
)

// String names the style.
func (s Style) String() string {
	switch s {
	case NonBlocking:
		return "nonblocking"
	case Blocking:
		return "blocking"
	case Manetho:
		return "manetho"
	default:
		return fmt.Sprintf("style(%d)", int(s))
	}
}

// State is the manager's protocol state.
type State int

const (
	// StateLive: normal operation.
	StateLive State = iota
	// StateWaiting: recovering, deferring to a lower-ordinal leader.
	StateWaiting
	// StateLeading: recovering and running the gather.
	StateLeading
	// StateReplaying: depinfo received, replay in progress.
	StateReplaying
)

// String names the state.
func (s State) String() string {
	return [...]string{"live", "waiting", "leading", "replaying"}[s]
}

// Host is what the manager needs from the protocol process it serves.
// All methods are invoked from the process's event context.
type Host interface {
	// DepInfo returns the full determinant log — the depinfo a live (or
	// replaying) process contributes to a gather.
	DepInfo() []det.Entry
	// DepInfoFor returns only the determinants whose receiver is one of the
	// given processes — the depinfo a scoped gather (Config.ScopedGather)
	// asks for. Replay only ever consults determinants naming a recovering
	// process as receiver, so the rest of the log is dead weight on the
	// wire; at n=1024 the difference is the bulk of the gather traffic.
	DepInfoFor(procs []ids.ProcID) []det.Entry
	// DepInfoLen returns how many entries the reply to a gather naming procs
	// would carry — len(DepInfoFor(procs)), or len(DepInfo()) when procs is
	// empty — without building it: the Manetho style sizes its stable write
	// from the count before it assembles the reply.
	DepInfoLen(procs []ids.ProcID) int
	// MergeIncVec installs newer incarnations from a leader's vector,
	// making stale messages rejectable.
	MergeIncVec(v []ids.Incarnation)
	// IncVecSnapshot returns the current incarnation vector.
	IncVecSnapshot() vclock.IncVector
	// ApplyRecoveryData merges the gathered depinfo and begins replay; the
	// host must call Manager.ReplayDone when replay completes.
	ApplyRecoveryData(entries []det.Entry, incVec []ids.Incarnation)
	// SetLiveBlocked starts/stops deferring application deliveries (only
	// meaningful for the Blocking and Manetho styles).
	SetLiveBlocked(blocked bool)
	// StableReplyWrite models Manetho's synchronous logging of the reply to
	// stable storage; done runs after the write is durable.
	StableReplyWrite(ord ids.Ordinal, size int, done func())
}

// Config parameterizes a manager.
type Config struct {
	Style Style
	// F is the failure budget (>= N selects the f = n instance, in which
	// the stable-storage pseudo-process also answers depinfo requests).
	F int
	// RetryEvery is the re-send period for unanswered gather requests and
	// unserved announcements.
	RetryEvery time.Duration
	// ScopedGather makes depinfo requests name the recovering members, so
	// repliers contribute only determinants those members will replay
	// (Host.DepInfoFor) instead of their full logs. Off by default: the
	// unscoped gather is the paper's literal protocol and the small-n golden
	// traces pin its frame sizes.
	ScopedGather bool
}

type regEntry struct {
	ord    ids.Ordinal
	inc    ids.Incarnation
	active bool // announced and not yet observed Recovered
	served bool // received its recovery data (to our knowledge)
}

// Manager runs the recovery protocol for one process. It is created fresh
// on every boot; all state here is volatile by design.
type Manager struct {
	cfg  Config
	host Host
	env  node.Env
	self ids.ProcID
	n    int

	state State
	myOrd ids.Ordinal

	reg map[ids.ProcID]*regEntry

	// Leader gather state.
	round      uint32
	phaseDep   bool // false: collecting incarnations (step 4); true: depinfo (step 5)
	pendingInc map[ids.ProcID]bool
	pendingDep map[ids.ProcID]bool
	incVec     vclock.IncVector
	gathered   *det.Log

	// Live-side blocking state.
	blockedBy ids.Ordinal
	isBlocked bool

	// Trace spans: the whole recovery (announce → recovery data) and the
	// current gather round (leader only).
	waitSpan   trace.SpanRef
	gatherSpan trace.SpanRef

	retry node.Timer
}

// NewManager returns a manager in StateLive.
func NewManager(cfg Config, host Host, env node.Env) *Manager {
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = time.Second
	}
	return &Manager{
		cfg:  cfg,
		host: host,
		env:  env,
		self: env.ID(),
		n:    env.N(),
		reg:  make(map[ids.ProcID]*regEntry),
	}
}

// State returns the current protocol state.
func (m *Manager) State() State { return m.state }

// Leading reports whether this process is the current recovery leader.
func (m *Manager) Leading() bool { return m.state == StateLeading }

// Ord returns this process's recovery ordinal (zero when live).
func (m *Manager) Ord() ids.Ordinal { return m.myOrd }

// StartRecovery begins the recovery protocol after the host has restored
// its checkpoint and incremented its incarnation (steps 1–3 of §3.4).
func (m *Manager) StartRecovery(ord ids.Ordinal, inc ids.Incarnation) {
	m.myOrd = ord
	m.state = StateWaiting
	m.reg[m.self] = &regEntry{ord: ord, inc: inc, active: true}
	m.waitSpan = m.env.Tracer().Begin(m.env.Now(), int32(m.self),
		trace.EvWaiting, trace.Tag{Inc: uint32(inc)})
	m.announce()
	m.armRetry()
	m.evaluate()
}

func (m *Manager) announce() {
	m.env.Tracer().Instant(m.env.Now(), int32(m.self), trace.EvAnnounce,
		trace.Tag{Inc: uint32(m.reg[m.self].inc)})
	e := &wire.Envelope{
		Kind:    wire.KindRecoveryAnnounce,
		FromInc: m.reg[m.self].inc,
		Ord:     m.myOrd,
	}
	m.broadcast(e, false)
}

// broadcast sends e to every application peer, readdressing the one
// envelope per destination (Send serializes at call time); withStorage also
// includes the stable-storage pseudo-process (f = n instance).
func (m *Manager) broadcast(e *wire.Envelope, withStorage bool) {
	for p := 0; p < m.n; p++ {
		if ids.ProcID(p) == m.self {
			continue
		}
		e.To = ids.ProcID(p)
		m.env.Send(ids.ProcID(p), e)
	}
	if withStorage && m.cfg.F >= m.n {
		e.To = ids.StorageProc
		m.env.Send(ids.StorageProc, e)
	}
}

func (m *Manager) armRetry() {
	m.retry.Stop()
	m.retry = m.env.After(m.cfg.RetryEvery, func() {
		switch m.state {
		case StateWaiting:
			// Re-announce until served: covers announcements lost to a
			// leader that was down when we broadcast.
			m.announce()
			m.armRetry()
		case StateLeading:
			m.resendPending()
			m.armRetry()
		}
	})
}

// evaluate decides whether we should lead: the lowest-ordinal active,
// unserved recovery leads (paper §3.3).
func (m *Manager) evaluate() {
	if m.state == StateLive || m.state == StateReplaying {
		return
	}
	me := m.reg[m.self]
	if me == nil || !me.active || me.served {
		return
	}
	min := m.minUnserved()
	switch {
	case min == m.self && m.state != StateLeading:
		m.lead()
	case min != m.self && m.state == StateLeading:
		m.env.Logf("recovery: demoting, %v has a lower ordinal", min)
		m.abortGather()
		m.state = StateWaiting
	}
}

// regProcs returns the registry keys in ascending order so every send loop
// is deterministic.
func (m *Manager) regProcs() []ids.ProcID {
	keys := make([]int, 0, len(m.reg))
	//rollvet:allow maporder -- keys are fully sorted below before any use
	for p := range m.reg {
		keys = append(keys, int(p))
	}
	sort.Ints(keys)
	out := make([]ids.ProcID, len(keys))
	for i, k := range keys {
		out[i] = ids.ProcID(k)
	}
	return out
}

// sortedPending returns map keys in ascending order (storage last).
func sortedPending(set map[ids.ProcID]bool) []ids.ProcID {
	keys := make([]int, 0, len(set))
	storage := false
	//rollvet:allow maporder -- keys are fully sorted below (storage pinned last) before any use
	for p := range set {
		if p.IsStorage() {
			storage = true
			continue
		}
		keys = append(keys, int(p))
	}
	sort.Ints(keys)
	out := make([]ids.ProcID, 0, len(keys)+1)
	for _, k := range keys {
		out = append(out, ids.ProcID(k))
	}
	if storage {
		out = append(out, ids.StorageProc)
	}
	return out
}

// minUnserved returns the process with the lowest active unserved ordinal.
func (m *Manager) minUnserved() ids.ProcID {
	best := ids.Nobody
	var bestOrd ids.Ordinal
	for _, p := range m.regProcs() {
		r := m.reg[p]
		if !r.active || r.served || r.ord.IsZero() {
			continue
		}
		if best == ids.Nobody || r.ord.Less(bestOrd) {
			best, bestOrd = p, r.ord
		}
	}
	return best
}

// abortGather closes an open gather span with an explicit abort marker; it
// is a no-op when no gather is in flight.
func (m *Manager) abortGather() {
	if m.gatherSpan == 0 {
		return
	}
	tr := m.env.Tracer()
	tr.Instant(m.env.Now(), int32(m.self), trace.EvGatherAbort,
		trace.Tag{Inc: uint32(m.selfInc()), Arg: int64(m.round)})
	tr.End(m.gatherSpan, m.env.Now())
	m.gatherSpan = 0
}

// lead starts (or restarts) the gather as leader.
func (m *Manager) lead() {
	m.abortGather()
	m.state = StateLeading
	m.round++
	m.gatherSpan = m.env.Tracer().Begin(m.env.Now(), int32(m.self),
		trace.EvGather, trace.Tag{Inc: uint32(m.reg[m.self].inc), Arg: int64(m.round)})
	if tr := m.env.Metrics().CurrentRecovery(); tr != nil {
		tr.WasLeader = true
		tr.Rounds = int(m.round)
	}
	m.gathered = det.NewLog(det.Config{N: m.n, F: m.cfg.F})
	m.incVec = m.host.IncVecSnapshot()
	m.pendingInc = make(map[ids.ProcID]bool)
	m.pendingDep = make(map[ids.ProcID]bool)

	// Step 4: collect incarnations of every recovering process. Members we
	// already heard an announce from are prefilled; members we only suspect
	// (a live process that died mid-gather) stay pending until their
	// announce arrives.
	for _, p := range m.regProcs() {
		r := m.reg[p]
		if !r.active || r.served || p == m.self {
			continue
		}
		if r.inc != 0 {
			m.incVec.Bump(p, r.inc)
		}
		m.pendingInc[p] = true
		if !r.ord.IsZero() {
			m.env.Send(p, &wire.Envelope{
				Kind:    wire.KindIncRequest,
				FromInc: m.reg[m.self].inc,
				Ord:     m.myOrd,
				Round:   m.round,
			})
		}
	}
	m.incVec.Bump(m.self, m.reg[m.self].inc)
	m.env.Logf("recovery: leading round %d, ord %v", m.round, m.myOrd)
	m.maybeStartDepPhase()
}

// maybeStartDepPhase transitions to step 5 once every recovering process's
// incarnation is known.
func (m *Manager) maybeStartDepPhase() {
	if m.state != StateLeading {
		return
	}
	for p := range m.pendingInc {
		if r := m.reg[p]; r == nil || r.inc == 0 {
			return // still waiting for an announce or IncReply
		}
	}
	m.pendingInc = make(map[ids.ProcID]bool)
	m.phaseDep = true
	for p := 0; p < m.n; p++ {
		pid := ids.ProcID(p)
		if pid == m.self || m.isRecoveringMember(pid) {
			continue
		}
		m.pendingDep[pid] = true
	}
	if m.cfg.F >= m.n {
		m.pendingDep[ids.StorageProc] = true
	}
	m.sendDepRequests()
	m.maybeFinish()
}

func (m *Manager) isRecoveringMember(p ids.ProcID) bool {
	r := m.reg[p]
	return r != nil && r.active && !r.served
}

// recoveringMembers returns the active, unserved recovering set (self
// included) in ascending process order — the receivers whose determinants a
// scoped gather must collect.
func (m *Manager) recoveringMembers() []ids.ProcID {
	var out []ids.ProcID
	for _, p := range m.regProcs() {
		if m.isRecoveringMember(p) {
			out = append(out, p)
		}
	}
	return out
}

func (m *Manager) sendDepRequests() {
	var members []ids.ProcID
	if m.cfg.ScopedGather {
		members = m.recoveringMembers()
	}
	for _, p := range sortedPending(m.pendingDep) {
		m.env.Send(p, &wire.Envelope{
			Kind:    wire.KindDepRequest,
			FromInc: m.reg[m.self].inc,
			Ord:     m.myOrd,
			Round:   m.round,
			IncVec:  m.incVec.Slice(),
			Members: members,
		})
	}
}

func (m *Manager) resendPending() {
	if !m.phaseDep {
		for _, p := range sortedPending(m.pendingInc) {
			if r := m.reg[p]; r != nil && !r.ord.IsZero() && r.inc == 0 {
				m.env.Send(p, &wire.Envelope{
					Kind:    wire.KindIncRequest,
					FromInc: m.reg[m.self].inc,
					Ord:     m.myOrd,
					Round:   m.round,
				})
			}
		}
		return
	}
	m.sendDepRequests()
}

// maybeFinish completes the gather (step 6) when every live process has
// replied.
func (m *Manager) maybeFinish() {
	if m.state != StateLeading || !m.phaseDep || len(m.pendingDep) > 0 {
		return
	}
	data := m.gathered.All()
	vec := m.incVec.Slice()
	m.env.Logf("recovery: gather complete, %d determinants", len(data))
	for _, p := range m.regProcs() {
		r := m.reg[p]
		if p == m.self || !r.active || r.served {
			continue
		}
		r.served = true
		m.env.Send(p, &wire.Envelope{
			Kind:    wire.KindRecoveryData,
			FromInc: m.reg[m.self].inc,
			Ord:     m.myOrd,
			Round:   m.round,
			Dets:    data,
			IncVec:  vec,
		})
	}
	// Unblock the live processes.
	m.broadcast(&wire.Envelope{
		Kind:    wire.KindRecoveryComplete,
		FromInc: m.reg[m.self].inc,
		Ord:     m.myOrd,
	}, false)
	// Serve ourselves last: ApplyRecoveryData starts replay synchronously.
	m.reg[m.self].served = true
	m.phaseDep = false
	m.state = StateReplaying
	if tr := m.env.Metrics().CurrentRecovery(); tr != nil {
		tr.GatheredAt = m.env.Now()
	}
	m.env.Tracer().End(m.gatherSpan, m.env.Now())
	m.gatherSpan = 0
	m.env.Tracer().End(m.waitSpan, m.env.Now())
	m.waitSpan = 0
	m.host.ApplyRecoveryData(data, vec)
}

// ReplayDone is called by the host when its replay finished; the process
// rejoins as live and tells the world.
func (m *Manager) ReplayDone() {
	m.state = StateLive
	if r := m.reg[m.self]; r != nil {
		r.active = false
	}
	m.retry.Stop()
	m.broadcast(&wire.Envelope{
		Kind:    wire.KindRecovered,
		FromInc: m.reg[m.self].inc,
		Ord:     m.myOrd,
	}, false)
	m.myOrd = ids.Ordinal{}
}
