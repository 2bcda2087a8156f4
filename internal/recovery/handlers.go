package recovery

import (
	"fmt"

	"rollrec/internal/ids"
	"rollrec/internal/wire"
)

// HandleMessage dispatches a recovery-protocol envelope. It returns false
// for kinds the manager does not own.
func (m *Manager) HandleMessage(e *wire.Envelope) bool {
	switch e.Kind {
	case wire.KindRecoveryAnnounce:
		m.onAnnounce(e)
	case wire.KindIncRequest:
		m.onIncRequest(e)
	case wire.KindIncReply:
		m.onIncReply(e)
	case wire.KindDepRequest:
		m.onDepRequest(e)
	case wire.KindDepReply:
		m.onDepReply(e)
	case wire.KindRecoveryData:
		m.onRecoveryData(e)
	case wire.KindRecoveryComplete:
		m.onRecoveryComplete(e)
	case wire.KindRecovered:
		m.onRecovered(e)
	default:
		return false
	}
	return true
}

// learn records (or refreshes) what we know about a peer's recovery.
// It reports whether anything changed.
func (m *Manager) learn(p ids.ProcID, ord ids.Ordinal, inc ids.Incarnation, active bool) bool {
	r := m.entry(p)
	changed := false
	if !ord.IsZero() && r.ord != ord {
		// A fresh ordinal means a fresh recovery attempt: it needs serving.
		if r.ord.Less(ord) || r.ord.IsZero() {
			r.ord = ord
			r.served = false
			changed = true
		}
	}
	if inc > r.inc {
		r.inc = inc
		changed = true
	}
	if active && !r.active {
		r.active = true
		r.served = false
		changed = true
	}
	return changed
}

func (m *Manager) onAnnounce(e *wire.Envelope) {
	changed := m.learn(e.From, e.Ord, e.FromInc, true)
	if !changed {
		return
	}
	switch m.state {
	case StateLeading:
		// A new recovery joined (or a member re-crashed with a new
		// ordinal): fold it into the round — the paper's "goto 4".
		m.evaluate()
		if m.state == StateLeading {
			m.lead()
		}
	default:
		m.evaluate()
	}
}

func (m *Manager) onIncRequest(e *wire.Envelope) {
	// A leader queried our incarnation: it believes we are recovering.
	m.learn(e.From, e.Ord, e.FromInc, true)
	m.replyInc(e.From, e.Round)
	m.evaluate() // a lower-ordinal leader demotes us
}

// replyInc answers a leader's round with this recovery's incarnation.
func (m *Manager) replyInc(to ids.ProcID, round uint32) {
	m.tx = wire.Envelope{
		Kind:    wire.KindIncReply,
		FromInc: m.entry(m.self).inc,
		Ord:     m.myOrd,
		Round:   round,
	}
	m.env.Send(to, &m.tx)
}

func (m *Manager) onIncReply(e *wire.Envelope) {
	if m.state != StateLeading {
		return
	}
	if m.g.dep && m.g.awaited[e.From] {
		// We asked for depinfo believing the peer live; it answered with an
		// incarnation: it is recovering. Fold it in and restart the round.
		m.learn(e.From, e.Ord, e.FromInc, true)
		m.evaluate()
		if m.state == StateLeading {
			m.lead()
		}
		return
	}
	m.learn(e.From, e.Ord, e.FromInc, true)
	m.maybeStartDepPhase()
}

func (m *Manager) onDepRequest(e *wire.Envelope) {
	m.learn(e.From, e.Ord, e.FromInc, true)
	if m.state == StateWaiting || m.state == StateLeading {
		// We are recovering ourselves: identify as such so the leader folds
		// us into the round instead of waiting for our depinfo.
		m.replyInc(e.From, e.Round)
		m.evaluate()
		return
	}

	// Live (or replaying) path: install the leader's incarnation vector
	// FIRST — from here on, stale messages from failed incarnations are
	// rejected, which is what makes the gathered snapshot consistent
	// without blocking anybody (§3.3).
	m.host.MergeIncVec(e.IncVec)

	switch m.cfg.Style {
	case NonBlocking:
		m.replyDeps(e.From, e.Ord, e.Round, e.Members)
	case Blocking:
		m.blockFor(e.Ord)
		m.replyDeps(e.From, e.Ord, e.Round, e.Members)
	case Manetho:
		m.blockFor(e.Ord)
		// Manetho requires the reply recorded on stable storage before it
		// is sent; the synchronous write stalls the reply (and lengthens
		// everyone's gather). The write is sized by the log as it is now, the
		// reply carries the log as it is when the write completes. That is
		// when the runtime has long reused e: the closure captures the fields
		// it needs, never e.
		from, ord, round, members := e.From, e.Ord, e.Round, e.Members
		m.host.StableReplyWrite(ord, 32*m.host.DepInfoLen(members), func() {
			m.replyDeps(from, ord, round, members)
		})
	default:
		panic(fmt.Sprintf("recovery: unknown style %v", m.cfg.Style))
	}
}

// replyDeps answers a gather with the host's depinfo. A request naming its
// recovering members asks for a scoped reply: only determinants those
// members will replay. The view reads the log as it is now; Send writes the
// frame from it before returning.
func (m *Manager) replyDeps(to ids.ProcID, ord ids.Ordinal, round uint32, members []ids.ProcID) {
	m.reply.SetView(m.host.DepInfo(members))
	m.tx = wire.Envelope{
		Kind:    wire.KindDepReply,
		FromInc: m.entry(m.self).inc,
		Ord:     ord,
		Round:   round,
		DetList: &m.reply,
	}
	m.env.Send(to, &m.tx)
	m.reply.Reset()
}

func (m *Manager) blockFor(ord ids.Ordinal) {
	if m.state != StateLive {
		return
	}
	was := m.Blocked()
	if m.blockedBy = ord; !was {
		m.host.SetLiveBlocked(true)
	}
}

func (m *Manager) unblock() {
	if m.Blocked() {
		m.blockedBy = ids.Ordinal{}
		m.host.SetLiveBlocked(false)
	}
}

func (m *Manager) onDepReply(e *wire.Envelope) {
	i := int(e.From)
	if e.From.IsStorage() {
		i = m.n // the awaited set's last slot
	}
	if m.state != StateLeading || !m.g.dep || e.Round != m.g.round || !m.g.awaited[i] {
		return
	}
	if err := e.DetList.RecordInto(m.g.gathered, ids.Nobody); err != nil {
		// Two processes disagreeing about a receipt order is a protocol
		// violation the simulator must surface loudly.
		panic(fmt.Sprintf("recovery: inconsistent depinfo from %v: %v", e.From, err))
	}
	m.g.awaited[i] = false
	m.maybeFinish()
}

func (m *Manager) onRecoveryData(e *wire.Envelope) {
	m.learn(e.From, e.Ord, e.FromInc, true)
	if m.state != StateWaiting && m.state != StateLeading {
		return
	}
	m.entry(m.self).served = true
	m.abortGather() // we were leading but a lower ordinal served us
	m.state = StateReplaying
	m.retry.Stop()
	if tr := m.env.Metrics().CurrentRecovery(); tr != nil {
		tr.GatheredAt = m.env.Now()
	}
	m.env.Tracer().End(m.waitSpan, m.env.Now())
	m.waitSpan = 0
	m.host.ApplyRecoveryData(e.DetList, e.IncVec)
}

func (m *Manager) onRecoveryComplete(e *wire.Envelope) {
	m.entry(e.From).served = true
	m.unblock()
	m.evaluate()
}

func (m *Manager) onRecovered(e *wire.Envelope) {
	m.entry(e.From).active = false
	m.evaluate()
}

// OnSuspect feeds failure-detector suspicions into the protocol.
func (m *Manager) OnSuspect(q ids.ProcID) {
	switch m.state {
	case StateLeading:
		if m.g.dep && m.g.awaited[q] {
			// A live process failed before replying: fold it into the
			// recovering set and restart the gather (step 5 → "goto 4").
			// Step 4 then waits for its new incarnation — its announcement
			// after restart — before re-running the depinfo phase; this
			// wait (detection + restore of the second victim) is what
			// dominates the paper's second experiment.
			m.learn(q, ids.Ordinal{}, 0, true)
			m.lead()
			return
		}
		if m.resetReCrashed(q) {
			// A recovering member died again mid-gather: restart the round
			// and wait for its fresh announcement.
			m.lead()
		}
	case StateWaiting:
		// If our presumed leader died, promote the next ordinal (§3.3:
		// "the next process in ordinal number becomes a recovery leader").
		wasLeader := m.minUnserved() == q
		if m.resetReCrashed(q) && wasLeader {
			m.evaluate()
		}
	case StateLive:
		if m.Blocked() && q == m.blockedBy.Proc {
			// The leader that blocked us died; unblock — its successor will
			// re-issue the request.
			m.unblock()
		}
	}
}

// resetReCrashed marks a suspected recovering member as awaiting a fresh
// announcement: its old ordinal and incarnation no longer describe it (it
// will come back with new ones), but it stays in the recovering set. It
// reports whether q was such a member.
func (m *Manager) resetReCrashed(q ids.ProcID) bool {
	r := m.entry(q)
	if !r.active || r.served {
		return false
	}
	r.ord = ids.Ordinal{}
	r.inc = 0
	return true
}
