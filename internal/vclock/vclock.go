package vclock

import (
	"fmt"
	"strings"

	"rollrec/internal/ids"
)

// Lamport is a classic Lamport scalar clock. The zero value is ready to use.
type Lamport struct {
	t uint64
}

// Tick advances the clock for a local event and returns the new value.
func (l *Lamport) Tick() uint64 {
	l.t++
	return l.t
}

// Witness merges an observed remote timestamp into the clock and ticks,
// returning the new value.
func (l *Lamport) Witness(remote uint64) uint64 {
	if remote > l.t {
		l.t = remote
	}
	l.t++
	return l.t
}

// Now returns the current value without advancing.
func (l *Lamport) Now() uint64 { return l.t }

// IncVector records, per process, the highest incarnation number known to be
// current. A message tagged with an incarnation lower than the recorded
// value for its sender is stale — it was sent by an execution that has since
// been rolled back — and must be rejected (paper §3.2, §3.3).
type IncVector struct {
	inc []ids.Incarnation
}

// NewIncVector returns a vector for n processes, all at incarnation 1 (the
// initial execution).
func NewIncVector(n int) (v IncVector) { v.Reset(n); return v }

// Reset makes v NewIncVector(n), in the array v has.
func (v *IncVector) Reset(n int) {
	v.inc = ids.PerProc(v.inc, n)
	for i := range v.inc {
		v.inc[i] = 1
	}
}

// Len returns the number of processes covered by the vector.
func (v IncVector) Len() int { return len(v.inc) }

// Get returns the recorded incarnation for p. The storage pseudo-process is
// always at incarnation 1 (it never fails). Unknown processes report 0.
func (v IncVector) Get(p ids.ProcID) ids.Incarnation {
	if p.IsStorage() {
		return 1
	}
	if p < 0 || int(p) >= len(v.inc) {
		return 0
	}
	return v.inc[p]
}

// Bump records that p has entered incarnation inc if it is newer than what
// the vector already holds. It reports whether the vector changed.
func (v *IncVector) Bump(p ids.ProcID, inc ids.Incarnation) bool {
	if p < 0 || int(p) >= len(v.inc) || inc <= v.inc[p] {
		return false
	}
	v.inc[p] = inc
	return true
}

// Merge takes the elementwise maximum of v and o in place and reports
// whether v changed. Merging is commutative, associative, and idempotent,
// which is what makes the recovery leader's broadcast of its incvector safe
// to apply in any order.
func (v *IncVector) Merge(o IncVector) bool {
	changed := false
	for i, inc := range o.inc {
		if i < len(v.inc) && inc > v.inc[i] {
			v.inc[i] = inc
			changed = true
		}
	}
	return changed
}

// Stale reports whether a message from sender p tagged with incarnation inc
// must be rejected because the vector already knows a newer incarnation of p.
func (v IncVector) Stale(p ids.ProcID, inc ids.Incarnation) bool {
	return inc < v.Get(p)
}

// Clone returns an independent copy.
func (v IncVector) Clone() IncVector {
	c := IncVector{inc: make([]ids.Incarnation, len(v.inc))}
	copy(c.inc, v.inc)
	return c
}

// Equal reports whether two vectors record identical incarnations.
func (v IncVector) Equal(o IncVector) bool {
	if len(v.inc) != len(o.inc) {
		return false
	}
	for i := range v.inc {
		if v.inc[i] != o.inc[i] {
			return false
		}
	}
	return true
}

// Slice exposes the raw incarnations for the wire codec. The returned slice
// aliases the vector and must not be modified.
func (v IncVector) Slice() []ids.Incarnation { return v.inc }

// FromSlice rebuilds a vector from codec values. The slice is copied.
func FromSlice(inc []ids.Incarnation) IncVector {
	c := IncVector{inc: make([]ids.Incarnation, len(inc))}
	copy(c.inc, inc)
	return c
}

// String renders the vector as "[1 2 1 ...]".
func (v IncVector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, inc := range v.inc {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", inc)
	}
	b.WriteByte(']')
	return b.String()
}
