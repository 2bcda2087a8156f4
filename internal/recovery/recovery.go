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
	"slices"
	"time"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/mutant"
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

// ParseStyle returns the style whose String is name.
func ParseStyle(name string) (Style, error) {
	for _, s := range []Style{NonBlocking, Blocking, Manetho} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown recovery style %q (want nonblocking, blocking or manetho)", name)
}

// State is a process's recovery lifecycle, held by its manager alone. A
// restarted process goes restoring → waiting or leading → replaying → live,
// and only a crash goes back: restoring is entered at a restarting Reset and
// left only by StartRecovery, so a process that has not announced cannot be
// live to its manager. Blocked (Manager.Blocked) is a flag on live.
type State int

const (
	// StateLive: normal operation.
	StateLive State = iota
	// StateRestoring: restarted, reading its checkpoint; not announced yet,
	// so it has nothing to contribute to anyone's gather.
	StateRestoring
	// StateWaiting: recovering, deferring to a lower-ordinal leader.
	StateWaiting
	// StateLeading: recovering and running the gather.
	StateLeading
	// StateReplaying: depinfo received, replay in progress.
	StateReplaying
)

// String names the state.
func (s State) String() string {
	return [...]string{"live", "restoring", "waiting", "leading", "replaying"}[s]
}

// Host is what the manager needs from the protocol process it serves.
// All methods are invoked from the process's event context.
type Host interface {
	// DepInfo returns the depinfo a live (or replaying) process contributes
	// to a gather: its whole determinant log when procs is empty, or — for a
	// scoped gather (Config.ScopedGather) naming the recovering processes —
	// only the determinants whose receiver is one of them. Replay only ever
	// consults determinants naming a recovering process as receiver, so the
	// rest of the log is dead weight on the wire; at n=1024 the difference
	// is the bulk of the gather traffic. The list is a view of the host's
	// log, valid until the log next changes: the manager sends it at once.
	DepInfo(procs []ids.ProcID) det.View
	// DepInfoLen returns DepInfo(procs).Len() without building the view:
	// the Manetho style sizes its stable write from the count before it
	// assembles the reply.
	DepInfoLen(procs []ids.ProcID) int
	// MergeIncVec installs newer incarnations from a leader's vector,
	// making stale messages rejectable.
	MergeIncVec(v []ids.Incarnation)
	// IncVecSnapshot returns the current incarnation vector.
	IncVecSnapshot() vclock.IncVector
	// ApplyRecoveryData merges the gathered depinfo, valid until it returns,
	// and begins replay; the host calls Manager.ReplayDone when it completes.
	ApplyRecoveryData(l *wire.DetList, incVec []ids.Incarnation)
	// SetLiveBlocked notifies a live host that Blocked changed: it starts or
	// stops deferring application deliveries (Blocking and Manetho styles).
	SetLiveBlocked(blocked bool)
	// StableReplyWrite models Manetho's synchronous logging of the reply to
	// stable storage; done runs after the write is durable.
	StableReplyWrite(ord ids.Ordinal, size int, done func())
}

// RetryEvery is the re-send period of a recovering FBL process: unanswered
// gather requests, unserved announcements, and unfilled replay requests.
const RetryEvery = time.Second

// Config parameterizes a manager.
type Config struct {
	Style Style
	// F is the failure budget (>= N selects the f = n instance, in which
	// the stable-storage pseudo-process also answers depinfo requests).
	F int
	// ScopedGather makes depinfo requests name the recovering members, so
	// repliers contribute only determinants those members will replay
	// (Host.DepInfo) instead of their full logs. Off by default: the
	// unscoped gather is the paper's literal protocol and the small-n golden
	// traces pin its frame sizes.
	ScopedGather bool
}

// regEntry is what a manager knows of one application process's recovery;
// the zero value is a process never seen recovering.
type regEntry struct {
	ord    ids.Ordinal
	inc    ids.Incarnation
	active bool // announced and not yet observed Recovered
	served bool // received its recovery data (to our knowledge)
}

// gather is one round of the leader's gather (steps 4 and 5). lead replaces
// it whole, so nothing of an abandoned round carries over: gathered is the
// one log a manager keeps, across rounds and boots, and lead empties it.
type gather struct {
	round uint32
	dep   bool // false: collecting incarnations (step 4); true: depinfo (step 5)
	// awaited is indexed by process, with the stable-storage pseudo-process
	// last (index n). In step 4 it marks the recovering members, whose
	// incarnations must be known; in step 5, the processes yet to reply.
	awaited  []bool
	incVec   vclock.IncVector
	gathered *det.Log
	span     trace.SpanRef // open while the round runs
}

// Manager runs the recovery protocol for one process. It is Reset on every
// boot; all state here is volatile by design.
type Manager struct {
	cfg  Config
	host Host
	env  node.Env
	self ids.ProcID
	n    int

	state State
	myOrd ids.Ordinal

	reg []regEntry // indexed by process; see entry
	g   gather     // the leader's current (or last) round

	// blockedBy is the ordinal of the gather the live process blocks for,
	// zero while it does not: the one blocked flag, set only in StateLive.
	blockedBy ids.Ordinal

	// waitSpan traces the whole recovery (announce → recovery data).
	waitSpan trace.SpanRef

	retry node.Timer

	// tx is the envelope every send is built in, and reply the list, a view
	// of the host's log, a depinfo reply's envelope points at: Send
	// serialises both at call time, so the next send overwrites them, and as
	// fields they cost no allocation. data is the gathered log, encoded once
	// and sorted (SetLog), for every recovering member and the leader itself.
	tx    wire.Envelope
	reply wire.DetList
	data  wire.DetList
}

// Reset makes m a fresh manager of a booting process, keeping the registry's
// array and the gathered log: in StateLive, or on a restart in
// StateRestoring until StartRecovery.
func (m *Manager) Reset(cfg Config, host Host, env node.Env, restart bool) {
	*m = Manager{cfg: cfg, host: host, env: env, self: env.ID(), n: env.N(), reg: m.reg[:0], g: gather{gathered: m.g.gathered}}
	if restart {
		m.state = StateRestoring
	}
}

// State returns the process's lifecycle state.
func (m *Manager) State() State { return m.state }

// Defers reports whether the host must keep the control frames it receives
// and hand them to HandleMessage right after StartRecovery: while restoring,
// the process has not announced, and has nothing to contribute to anyone's
// gather.
func (m *Manager) Defers() bool {
	return m.state == StateRestoring && mutant.On != mutant.AnswerWhileRestoring
}

// Blocked reports whether the live process defers application deliveries
// for a gather (Blocking and Manetho styles).
func (m *Manager) Blocked() bool { return !m.blockedBy.IsZero() }

// StartRecovery begins the recovery protocol after the host has restored
// its checkpoint and incremented its incarnation (steps 1–3 of §3.4).
func (m *Manager) StartRecovery(ord ids.Ordinal, inc ids.Incarnation) {
	m.myOrd = ord
	m.state = StateWaiting
	*m.entry(m.self) = regEntry{ord: ord, inc: inc, active: true}
	m.waitSpan = m.env.Tracer().Begin(m.env.Now(), int32(m.self),
		trace.EvWaiting, trace.Tag{Inc: uint32(inc)})
	m.announce()
	m.armRetry()
	m.evaluate()
}

func (m *Manager) announce() {
	m.env.Tracer().Instant(m.env.Now(), int32(m.self), trace.EvAnnounce,
		trace.Tag{Inc: uint32(m.entry(m.self).inc)})
	m.broadcast(wire.KindRecoveryAnnounce)
}

// broadcast sends every application peer a kind frame of this recovery (its
// incarnation and ordinal), addressed to the peer.
func (m *Manager) broadcast(kind wire.Kind) {
	inc := m.entry(m.self).inc
	for p := 0; p < m.n; p++ {
		to := ids.ProcID(p)
		if to == m.self {
			continue
		}
		m.tx = wire.Envelope{Kind: kind, To: to, FromInc: inc, Ord: m.myOrd}
		m.env.Send(to, &m.tx)
	}
}

func (m *Manager) armRetry() {
	m.retry.Stop()
	m.retry = m.env.After(RetryEvery, func() {
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
	if m.state != StateWaiting && m.state != StateLeading {
		return
	}
	if me := m.entry(m.self); !me.active || me.served {
		return
	}
	min := m.minUnserved()
	switch {
	case min == m.self && m.state != StateLeading:
		m.lead()
	case min != m.self && m.state == StateLeading:
		m.abortGather()
		m.state = StateWaiting
	}
}

// minUnserved returns the process with the lowest active unserved ordinal.
func (m *Manager) minUnserved() ids.ProcID {
	best := ids.Nobody
	var bestOrd ids.Ordinal
	for p, r := range m.reg {
		if !r.active || r.served || r.ord.IsZero() {
			continue
		}
		if best == ids.Nobody || r.ord.Less(bestOrd) {
			best, bestOrd = ids.ProcID(p), r.ord
		}
	}
	return best
}

// abortGather closes an open gather span with an explicit abort marker; it
// is a no-op when no gather is in flight.
func (m *Manager) abortGather() {
	if m.g.span == 0 {
		return
	}
	tr := m.env.Tracer()
	tr.Instant(m.env.Now(), int32(m.self), trace.EvGatherAbort,
		trace.Tag{Inc: uint32(m.entry(m.self).inc), Arg: int64(m.g.round)})
	tr.End(m.g.span, m.env.Now())
	m.g.span = 0
}

// lead starts (or restarts) the gather as leader with a fresh round.
func (m *Manager) lead() {
	m.abortGather()
	m.state = StateLeading
	inc := m.entry(m.self).inc
	if m.g.gathered == nil {
		m.g.gathered = new(det.Log)
	}
	m.g.gathered.Reset(det.Config{N: m.n, F: m.cfg.F})
	m.g = gather{
		round:    m.g.round + 1,
		awaited:  make([]bool, m.n+1),
		incVec:   m.host.IncVecSnapshot(),
		gathered: m.g.gathered,
	}
	m.g.span = m.env.Tracer().Begin(m.env.Now(), int32(m.self),
		trace.EvGather, trace.Tag{Inc: uint32(inc), Arg: int64(m.g.round)})
	if tr := m.env.Metrics().CurrentRecovery(); tr != nil {
		tr.WasLeader = true
		tr.Rounds = int(m.g.round)
	}

	// Step 4: collect incarnations of every recovering process. Members we
	// already heard an announce from are prefilled; members we only suspect
	// (a live process that died mid-gather) stay awaited until their
	// announce arrives.
	for p, r := range m.reg {
		if !r.active || r.served || ids.ProcID(p) == m.self {
			continue
		}
		if r.inc != 0 {
			m.g.incVec.Bump(ids.ProcID(p), r.inc)
		}
		m.g.awaited[p] = true
		if !r.ord.IsZero() {
			m.sendIncRequest(ids.ProcID(p))
		}
	}
	m.g.incVec.Bump(m.self, inc)
	m.maybeStartDepPhase()
}

// maybeStartDepPhase moves the round to step 5 once every recovering
// process's incarnation is known. It runs step 5 once per round.
func (m *Manager) maybeStartDepPhase() {
	if m.state != StateLeading || m.g.dep {
		return
	}
	for p, r := range m.reg {
		if m.g.awaited[p] && r.inc == 0 {
			return // still waiting for an announce or IncReply
		}
	}
	m.g.dep = true
	for p := range m.reg {
		m.g.awaited[p] = ids.ProcID(p) != m.self && !m.isRecoveringMember(ids.ProcID(p))
	}
	m.g.awaited[m.n] = m.cfg.F >= m.n
	m.sendDepRequests()
	m.maybeFinish()
}

// entry is p's registry entry. The registry is allocated on first use: a
// manager that never hears of a recovery keeps none, so a cluster of n does
// not build n² entries when it starts.
func (m *Manager) entry(p ids.ProcID) *regEntry {
	if len(m.reg) == 0 {
		m.reg = ids.PerProc(m.reg, m.n)
	}
	return &m.reg[p]
}

func (m *Manager) isRecoveringMember(p ids.ProcID) bool {
	r := m.reg[p]
	return r.active && !r.served
}

// recoveringMembers returns the active, unserved recovering set (self
// included) in ascending process order — the receivers whose determinants a
// scoped gather must collect.
func (m *Manager) recoveringMembers() []ids.ProcID {
	var out []ids.ProcID
	for p := range m.reg {
		if m.isRecoveringMember(ids.ProcID(p)) {
			out = append(out, ids.ProcID(p))
		}
	}
	return out
}

func (m *Manager) sendDepRequests() {
	var members []ids.ProcID
	if m.cfg.ScopedGather {
		members = m.recoveringMembers()
	}
	for i, awaited := range m.g.awaited {
		if !awaited {
			continue
		}
		to := ids.ProcID(i)
		if i == m.n {
			to = ids.StorageProc
		}
		m.tx = wire.Envelope{
			Kind:    wire.KindDepRequest,
			FromInc: m.entry(m.self).inc,
			Ord:     m.myOrd,
			Round:   m.g.round,
			IncVec:  m.g.incVec.Slice(),
			Members: members,
		}
		m.env.Send(to, &m.tx)
	}
}

// sendIncRequest asks recovering member `to` for its incarnation (step 4).
func (m *Manager) sendIncRequest(to ids.ProcID) {
	m.tx = wire.Envelope{
		Kind:    wire.KindIncRequest,
		FromInc: m.entry(m.self).inc,
		Ord:     m.myOrd,
		Round:   m.g.round,
	}
	m.env.Send(to, &m.tx)
}

func (m *Manager) resendPending() {
	if m.g.dep {
		m.sendDepRequests()
		return
	}
	for p, r := range m.reg {
		if m.g.awaited[p] && !r.ord.IsZero() && r.inc == 0 {
			m.sendIncRequest(ids.ProcID(p))
		}
	}
}

// maybeFinish completes the gather (step 6) when every live process has
// replied.
func (m *Manager) maybeFinish() {
	if m.state != StateLeading || !m.g.dep || slices.Contains(m.g.awaited, true) {
		return
	}
	m.data.SetLog(m.g.gathered)
	vec := m.g.incVec.Slice()
	for p := range m.reg {
		r := &m.reg[p]
		if ids.ProcID(p) == m.self || !r.active || r.served {
			continue
		}
		r.served = true
		m.tx = wire.Envelope{
			Kind:    wire.KindRecoveryData,
			FromInc: m.entry(m.self).inc,
			Ord:     m.myOrd,
			Round:   m.g.round,
			DetList: &m.data,
			IncVec:  vec,
		}
		m.env.Send(ids.ProcID(p), &m.tx)
	}
	// Unblock the live processes.
	m.broadcast(wire.KindRecoveryComplete)
	// Serve ourselves last: ApplyRecoveryData starts replay synchronously.
	m.entry(m.self).served = true
	m.state = StateReplaying
	if tr := m.env.Metrics().CurrentRecovery(); tr != nil {
		tr.GatheredAt = m.env.Now()
	}
	m.env.Tracer().End(m.g.span, m.env.Now())
	m.g.span = 0
	m.env.Tracer().End(m.waitSpan, m.env.Now())
	m.waitSpan = 0
	m.host.ApplyRecoveryData(&m.data, vec)
}

// ReplayDone is called by the host when its replay finished; the process
// rejoins as live and tells the world.
func (m *Manager) ReplayDone() {
	m.state = StateLive
	m.entry(m.self).active = false
	m.retry.Stop()
	m.broadcast(wire.KindRecovered)
	m.myOrd = ids.Ordinal{}
}
