package ids

import (
	"fmt"
	"sort"
)

// ProcID identifies a process in a cluster. Application processes are
// numbered 0..n-1. The distinguished StorageProc models the "additional
// process that never fails" the paper uses for the f = n case (§3.3).
type ProcID int32

// StorageProc is the pseudo-process standing in for stable storage in the
// f = n instance of the protocol family. It never fails and never initiates
// messages of its own.
const StorageProc ProcID = -1

// Nobody is the zero-value "no process" sentinel, distinct from both real
// processes and StorageProc.
const Nobody ProcID = -2

// String renders the identifier for logs and traces.
func (p ProcID) String() string {
	switch p {
	case StorageProc:
		return "p[stable]"
	case Nobody:
		return "p[none]"
	default:
		return fmt.Sprintf("p%d", int32(p))
	}
}

// IsStorage reports whether the identifier names the stable-storage
// pseudo-process.
func (p ProcID) IsStorage() bool { return p == StorageProc }

// Valid reports whether p names a real or storage process within a cluster
// of n application processes.
func (p ProcID) Valid(n int) bool {
	return p == StorageProc || (p >= 0 && int(p) < n)
}

// Peers returns the application processes 0..n-1 other than self, in id
// order: the destination list of a send-to-all.
func Peers(self ProcID, n int) []ProcID {
	out := make([]ProcID, 0, n)
	for q := ProcID(0); int(q) < n; q++ {
		if q != self {
			out = append(out, q)
		}
	}
	return out
}

// Incarnation counts how many times a process has recovered from a failure.
// It starts at 1 for the initial execution and is incremented on every
// recovery (paper §3.2). Incarnation 0 means "unknown".
type Incarnation uint32

// SSN is a send sequence number: the position of a message in its sender's
// send order. SSNs restart-continue across failures because the execution is
// deterministic — a recovering sender regenerates messages with their
// original SSNs, which is what lets receivers suppress duplicates.
type SSN uint64

// RSN is a receive sequence number: the position of a message in its
// receiver's delivery order. The pair (receiver, RSN) is the nondeterministic
// outcome that determinants record.
type RSN uint64

// MsgID names an application message uniquely across the whole execution:
// the sender together with the sender-local send sequence number. Note the
// incarnation is deliberately not part of the identity — a regenerated
// message is the same message.
type MsgID struct {
	Sender ProcID
	SSN    SSN
}

// String renders the message identifier.
func (m MsgID) String() string { return fmt.Sprintf("%v#%d", m.Sender, m.SSN) }

// Less orders message identifiers by (sender, ssn); used for deterministic
// iteration when emitting piggyback lists and replay requests.
func (m MsgID) Less(o MsgID) bool {
	if m.Sender != o.Sender {
		return m.Sender < o.Sender
	}
	return m.SSN < o.SSN
}

// SortMsgIDs sorts a slice of message identifiers in (sender, ssn) order.
func SortMsgIDs(s []MsgID) {
	sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
}

// Ordinal is the system-wide monotonic recovery ordinal from §3.2: every
// recovery acquires one, and the in-progress recovery with the lowest
// ordinal is the recovery leader. We realize it as a Lamport timestamp
// paired with the recovering process's identifier, which yields the total
// order the paper requires.
type Ordinal struct {
	Clock uint64
	Proc  ProcID
}

// Less orders ordinals lexicographically by (clock, proc).
func (o Ordinal) Less(p Ordinal) bool {
	if o.Clock != p.Clock {
		return o.Clock < p.Clock
	}
	return o.Proc < p.Proc
}

// IsZero reports whether the ordinal is unset.
func (o Ordinal) IsZero() bool { return o.Clock == 0 && o.Proc == 0 }

// String renders the ordinal.
func (o Ordinal) String() string { return fmt.Sprintf("ord(%d,%v)", o.Clock, o.Proc) }
