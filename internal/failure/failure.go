package failure

import (
	"sort"
	"time"

	"rollrec/internal/ids"
)

// Detector tracks peer liveness for one process. It is driven entirely by
// its owner: call Heard on every inbound frame and Tick periodically.
// Not safe for concurrent use.
type Detector struct {
	self         ids.ProcID
	n            int
	suspectAfter time.Duration
	lastHeard    []int64
	suspected    []bool
	onSuspect    func(p ids.ProcID)
	// monitored restricts Tick's silence scan to a subset of peers (the
	// fanout ring: only processes that actually heartbeat us). nil means
	// every peer is monitored (all-to-all heartbeats).
	monitored []ids.ProcID
}

// NewDetector returns a detector for a cluster of n processes. onSuspect
// fires exactly once per suspicion (until Clear); it may be nil.
func NewDetector(self ids.ProcID, n int, suspectAfter time.Duration, now int64, onSuspect func(ids.ProcID)) *Detector {
	d := &Detector{
		self:         self,
		n:            n,
		suspectAfter: suspectAfter,
		lastHeard:    make([]int64, n),
		suspected:    make([]bool, n),
		onSuspect:    onSuspect,
	}
	for i := range d.lastHeard {
		d.lastHeard[i] = now
	}
	return d
}

// Heard records traffic from p at virtual time now and clears any standing
// suspicion of p (hearing from a process proves it is up again).
//
//rollvet:hotpath
func (d *Detector) Heard(p ids.ProcID, now int64) {
	if !d.tracks(p) {
		return
	}
	d.lastHeard[p] = now
	d.suspected[p] = false
}

// SetMonitored restricts the silence scan to the given peers (the given
// order is preserved, keeping suspicion order deterministic). Peers outside the
// set still clear suspicions via Heard but are never suspected by Tick —
// under ring heartbeating their silence is expected, not a failure signal.
func (d *Detector) SetMonitored(ps []ids.ProcID) {
	d.monitored = append([]ids.ProcID(nil), ps...)
}

// Tick scans for peers that have been silent longer than the suspicion
// threshold and fires onSuspect for each new suspicion.
func (d *Detector) Tick(now int64) {
	if d.monitored != nil {
		for _, pid := range d.monitored {
			d.tick1(pid, now)
		}
		return
	}
	for p := 0; p < d.n; p++ {
		d.tick1(ids.ProcID(p), now)
	}
}

func (d *Detector) tick1(pid ids.ProcID, now int64) {
	if !d.tracks(pid) || d.suspected[pid] {
		return
	}
	if now-d.lastHeard[pid] > int64(d.suspectAfter) {
		d.suspected[pid] = true
		if d.onSuspect != nil {
			d.onSuspect(pid)
		}
	}
}

// Suspected reports whether p is currently suspected. The storage
// pseudo-process and the owner itself are never suspected.
func (d *Detector) Suspected(p ids.ProcID) bool {
	return d.tracks(p) && d.suspected[p]
}

// Clear removes a suspicion without fresh traffic (e.g., after the peer's
// recovery announcement arrived through a third party).
func (d *Detector) Clear(p ids.ProcID, now int64) { d.Heard(p, now) }

// SuspectedSet returns the currently suspected processes in ascending order.
func (d *Detector) SuspectedSet() []ids.ProcID {
	var out []ids.ProcID
	for p := 0; p < d.n; p++ {
		if d.suspected[p] {
			out = append(out, ids.ProcID(p))
		}
	}
	return out
}

func (d *Detector) tracks(p ids.ProcID) bool {
	return p != d.self && !p.IsStorage() && p >= 0 && int(p) < d.n
}

// Crash is one injected failure: Proc crashes at virtual time At, or — when
// Step is positive — at the event-dispatch boundary Step of the classic
// kernel (sim.CrashAtStep). Step-indexed crashes are what the explorer uses
// to land failures between any two events, including inside an in-progress
// recovery; time-indexed crashes remain the experiments' coarse knob.
type Crash struct {
	At   time.Duration
	Proc ids.ProcID
	Step int64
}

// Plan is a crash schedule. Use Sorted before applying.
type Plan []Crash

// Sorted returns the plan ordered by injection time, step-indexed entries
// tie-broken by step (stable for equal keys). Step crashes carry At == 0,
// so a mixed plan applies them first — they name early-run boundaries.
func (p Plan) Sorted() Plan {
	out := append(Plan(nil), p...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Step < out[j].Step
	})
	return out
}

// MaxConcurrent returns the largest number of crashes whose recovery
// windows overlap, assuming each recovery lasts `window`. Experiments use
// it to assert a plan stays within the protocol's f budget.
func (p Plan) MaxConcurrent(window time.Duration) int {
	s := p.Sorted()
	max := 0
	for i := range s {
		c := 1
		for j := i + 1; j < len(s); j++ {
			if s[j].At-s[i].At < window {
				c++
			}
		}
		if c > max {
			max = c
		}
	}
	return max
}
