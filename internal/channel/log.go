package channel

import (
	"slices"
	"unsafe"

	"rollrec/internal/ids"
	"rollrec/internal/storage"
)

// Rec is one logged application send: its send sequence number and its
// payload, whose padding stays a count (workload.Ctx.Send).
type Rec struct {
	SSN     ids.SSN
	Payload storage.Image
}

// Window is the volatile send log for one destination (sender-based message
// logging): the records with dseq Base, Base+1, … in order. A destination's
// dseqs are assigned +1 per send and dropped only as a prefix (the
// destination made them durable), so the log is a contiguous window: append
// and prune are O(1) amortized, iteration is in dseq order with no sort, and
// a dseq is an index. A nil window is an empty log that cannot be appended
// to: Log allocates one per destination actually sent to.
type Window struct {
	base uint64 // dseq of recs[head]; meaningless while the window is empty
	recs []Rec  // live records are recs[head:]
	head int    // pruned records not yet compacted away
}

// Len returns the number of logged records.
func (w *Window) Len() int {
	if w == nil {
		return 0
	}
	return len(w.recs) - w.head
}

// Base returns the dseq of the first logged record.
func (w *Window) Base() uint64 {
	if w == nil {
		return 0
	}
	return w.base
}

// Live returns the logged records in dseq order; record i has dseq Base()+i.
func (w *Window) Live() []Rec {
	if w == nil {
		return nil
	}
	return w.recs[w.head:]
}

// Append logs the record for dseq, which must follow the last one logged
// (an empty window starts wherever it is told to).
func (w *Window) Append(dseq uint64, rec Rec) {
	switch {
	case w.Len() == 0: // prune left nothing behind
		w.base = dseq
	case dseq != w.base+uint64(w.Len()):
		panic("channel: send log is not contiguous")
	}
	w.recs = append(w.recs, rec)
}

// After returns the records with dseq beyond start and the dseq of the
// first of them.
func (w *Window) After(start uint64) ([]Rec, uint64) {
	if w.Len() == 0 {
		return nil, 0
	}
	if start < w.base {
		return w.Live(), w.base
	}
	skip := min(start-w.base, uint64(w.Len()-1)) + 1
	return w.Live()[skip:], w.base + skip
}

// Prune drops the records with dseq <= wm. The dropped prefix is cleared so
// its payloads can be collected, and compacted away once it is as long as
// what is left, so a window that keeps being appended to and pruned reuses
// its array instead of growing a new one.
func (w *Window) Prune(wm uint64) {
	if w.Len() == 0 || wm < w.base {
		return
	}
	k := int(min(wm-w.base, uint64(w.Len()-1))) + 1
	clear(w.recs[w.head : w.head+k])
	w.base += uint64(k)
	w.head += k
	if w.head >= w.Len() {
		n := copy(w.recs, w.Live())
		clear(w.recs[w.head:])
		w.recs, w.head = w.recs[:n], 0
	}
}

// Log is a sender's send log, one Window per destination, each allocated on
// the first send to it: at n=1024 eager windows would cost a million
// allocations per cluster boot, almost all for peers a process never sends
// to.
type Log []*Window

// Append logs the record for the frame with dseq to destination to.
func (l Log) Append(to ids.ProcID, dseq uint64, rec Rec) {
	if l[to] == nil {
		l[to] = new(Window)
	}
	l[to].Append(dseq, rec)
}

// After returns the records for to with dseq beyond start, and the dseq of
// the first of them: what a retransmission request from to asks for.
func (l Log) After(to ids.ProcID, start uint64) ([]Rec, uint64) {
	return l[to].After(start)
}

// Prune drops the records for to with dseq <= wm.
func (l Log) Prune(to ids.ProcID, wm uint64) { l[to].Prune(wm) }

// Reset empties the log for n destinations, keeping its windows' arrays.
func (l *Log) Reset(n int) {
	for _, w := range (*l)[:cap(*l)] {
		if w != nil {
			clear(w.recs)
			*w = Window{recs: w.recs[:0]}
		}
	}
	*l = slices.Grow((*l)[:0], n)[:n]
}

// Size returns the number of logged records, all destinations, and the bytes
// they occupy: the payloads' stored bytes (their padding is a count, and
// occupies none) and the windows' arrays.
func (l Log) Size() (records, bytes int) {
	for _, w := range l {
		records += w.Len()
		if w != nil {
			bytes += cap(w.recs) * int(unsafe.Sizeof(Rec{}))
		}
		for _, rec := range w.Live() {
			bytes += len(rec.Payload.Data)
		}
	}
	return records, bytes
}
