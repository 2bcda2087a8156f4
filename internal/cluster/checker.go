package cluster

import (
	"fmt"
	"math"
	"unsafe"

	"rollrec/internal/ids"
)

// sendInfo and deliverInfo are the checker's records of one send and one
// delivery. Timelines are indexed by the owner's own counter (ssn, rsn),
// which start at 1 and are dense, so an index the execution never wrote
// holds the zero record; both types can tell that it is absent.
type sendInfo struct {
	to   ids.ProcID
	sent bool
	hash uint64
}

type deliverInfo struct {
	msg  ids.MsgID // msg.SSN == 0: no delivery recorded at this rsn
	hash uint64
}

func (d deliverInfo) delivered() bool { return d.msg.SSN != 0 }

// A history's chunking: every chunk after the first is allocated whole and
// never moves; the first doubles from tlFirst records up to a whole chunk,
// so a short run pays only for what it holds.
const (
	tlBits  = 6
	tlChunk = 1 << tlBits
	tlMask  = tlChunk - 1
	tlFirst = 8
)

// history is one process's timeline of records, indexed by its counter:
// records 0..len-1 exist. Its chunks outlive truncation and cluster resets.
type history[T any] struct {
	chunks [][]T
	n      uint64
}

func (tl *history[T]) len() uint64 { return tl.n }

// at returns record i < len.
func (tl *history[T]) at(i uint64) *T { return &tl.chunks[i>>tlBits][i&tlMask] }

// grow makes index i exist. Every record it exposes is zero, including one a
// truncation left behind in a kept chunk.
func (tl *history[T]) grow(i uint64) {
	for tl.n <= i {
		c, j := tl.n>>tlBits, int(tl.n&tlMask)
		if c == uint64(len(tl.chunks)) {
			tl.chunks = append(tl.chunks, nil)
		}
		ch := tl.chunks[c]
		if j == len(ch) {
			size := tlChunk
			if c == 0 {
				size = max(tlFirst, 2*j) // 8, 16, 32, tlChunk
			}
			ch = make([]T, size)
			copy(ch, tl.chunks[c])
			tl.chunks[c] = ch
		}
		end := len(ch)
		if rest := i - tl.n; rest < uint64(end-j) {
			end = j + int(rest) + 1
		}
		clear(ch[j:end])
		tl.n += uint64(end - j)
	}
}

// truncate drops the records at index n and beyond.
func (tl *history[T]) truncate(n uint64) { tl.n = min(tl.n, n) }

// bytes is the timeline's allocated capacity.
func (tl *history[T]) bytes() int {
	if len(tl.chunks) == 0 {
		return 0
	}
	var rec T
	recs := len(tl.chunks[0]) + (len(tl.chunks)-1)*tlChunk
	return recs*int(unsafe.Sizeof(rec)) + cap(tl.chunks)*int(unsafe.Sizeof(tl.chunks[0]))
}

// dupIndex is one receiver's duplicate index: for each message id on its
// current delivery timeline, the rsn it was last put at. The table is open
// addressed with linear probing, at most half full, and holds rsn+1 (0 is an
// empty slot): an entry's key is the id its timeline records at that rsn.
// That rests on one invariant, which every hook keeps: an entry names an rsn
// whose record holds its id. A delivery that overwrites a record, and a
// truncation, forget the records they replace first.
type dupIndex struct {
	slots []uint32
	n     int
}

const dupFirst = 16 // slots of a table's first allocation

// home is the slot a probe for id starts at.
func (x *dupIndex) home(id ids.MsgID) int {
	h := (uint64(id.SSN) ^ uint64(uint32(id.Sender))<<40) * 0x9e3779b97f4a7c15
	return int(h>>32) & (len(x.slots) - 1)
}

// find returns the slot holding id's entry, or -1 and the empty slot that
// ends its probe (-1 as well while the table is unallocated).
func (x *dupIndex) find(id ids.MsgID, tl *history[deliverInfo]) (at, free int) {
	if len(x.slots) == 0 {
		return -1, -1
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return -1, i
		}
		if tl.at(uint64(v-1)).msg == id {
			return i, -1
		}
	}
}

// put makes rsn, whose record holds id, id's entry: it overwrites any entry
// id had.
func (x *dupIndex) put(id ids.MsgID, rsn ids.RSN, tl *history[deliverInfo]) {
	at, free := x.find(id, tl)
	if at < 0 && 2*(x.n+1) > len(x.slots) {
		x.rehash(max(dupFirst, 2*len(x.slots)), tl)
		at, free = x.find(id, tl)
	}
	if at < 0 {
		at = free
		x.n++
	}
	x.slots[at] = uint32(rsn) + 1
}

// rehash moves every entry into a table of size slots.
func (x *dupIndex) rehash(size int, tl *history[deliverInfo]) {
	old := x.slots
	x.slots = make([]uint32, size)
	for _, v := range old {
		if v != 0 {
			_, free := x.find(tl.at(uint64(v-1)).msg, tl)
			x.slots[free] = v
		}
	}
}

// del removes id's entry, if it has one, and shifts the entries after it in
// the probe run back so that no later probe stops short of its entry.
func (x *dupIndex) del(id ids.MsgID, tl *history[deliverInfo]) {
	hole, _ := x.find(id, tl)
	if hole < 0 {
		return
	}
	x.n--
	mask := len(x.slots) - 1
	for i := (hole + 1) & mask; x.slots[i] != 0; i = (i + 1) & mask {
		// The entry at i may fill the hole unless its home lies cyclically
		// in (hole, i].
		if h := x.home(tl.at(uint64(x.slots[i] - 1)).msg); (i-h)&mask >= (i-hole)&mask {
			x.slots[hole], hole = x.slots[i], i
		}
	}
	x.slots[hole] = 0
}

// resetChecker empties the FBL checker's timelines and indices, for n
// processes, keeping their chunks and tables.
func (c *Cluster) resetChecker(n int) {
	if c.sends == nil {
		c.sends = make([]history[sendInfo], n)
		c.deliveries = make([]history[deliverInfo], n)
		c.seen = make([]dupIndex, n)
	}
	for i := range n {
		c.sends[i].truncate(0)
		c.deliveries[i].truncate(0)
		clear(c.seen[i].slots)
		c.seen[i].n = 0
	}
}

// onSend maintains the sender's current-timeline send history: a send at
// ssn k supersedes any previously recorded sends at ssn >= k (they belonged
// to a rolled-back execution).
func (c *Cluster) onSend(self ids.ProcID, id ids.MsgID, to ids.ProcID, hash uint64) {
	k := uint64(id.SSN)
	tl := &c.sends[self]
	tl.grow(k)
	if old := tl.at(k); old.sent && (old.to != to || old.hash != hash) {
		// Divergent regeneration: drop the stale tail beyond this point.
		tl.truncate(k + 1)
	}
	*tl.at(k) = sendInfo{to: to, sent: true, hash: hash}
}

// onDeliver maintains the receiver's current-timeline delivery history and
// checks exactly-once within a timeline.
func (c *Cluster) onDeliver(self ids.ProcID, id ids.MsgID, from ids.ProcID, rsn ids.RSN, hash uint64) {
	if rsn >= math.MaxUint32 {
		panic(fmt.Sprintf("cluster: %v delivered %v at rsn %d, beyond the checker's 32-bit duplicate index", self, id, rsn))
	}
	k := uint64(rsn)
	tl, seen := &c.deliveries[self], &c.seen[self]
	tl.grow(k)
	old := *tl.at(k)
	if old.delivered() && old.msg != id {
		// A new execution reused this rsn: it and everything beyond belonged
		// to the rolled-back timeline.
		c.forget(self, k)
		tl.truncate(k + 1)
	}
	if at, _ := seen.find(id, tl); at >= 0 && seen.slots[at] != uint32(rsn)+1 {
		c.violate("exactly-once: %v delivered %v at rsn %d and again at rsn %d", self, id, seen.slots[at]-1, rsn)
	}
	if old.msg == id && old.hash != hash {
		c.violate("replay fidelity: %v re-delivered %v at rsn %d with different content", self, id, rsn)
	}
	*tl.at(k) = deliverInfo{msg: id, hash: hash}
	seen.put(id, rsn, tl)
}

// forget removes self's rolled-back deliveries, those at rsn from and
// beyond, from its duplicate index. Their records must still hold them.
func (c *Cluster) forget(self ids.ProcID, from uint64) {
	tl := &c.deliveries[self]
	for k := from; k < tl.len(); k++ {
		if d := tl.at(k); d.delivered() {
			c.seen[self].del(d.msg, tl)
		}
	}
}

// onLive truncates the harness timelines to the surviving frontier: any
// send/delivery beyond the post-replay counters was rolled back for good.
func (c *Cluster) onLive(self ids.ProcID, inc ids.Incarnation, ssn ids.SSN, rsn ids.RSN) {
	c.sends[self].truncate(uint64(ssn) + 1)
	c.forget(self, uint64(rsn)+1)
	c.deliveries[self].truncate(uint64(rsn) + 1)
}

// CheckerStats is what the FBL checker holds, summed over the processes;
// the other families keep no checker and read zero.
type CheckerStats struct {
	// Sends and Deliveries count the records on the send and delivery
	// timelines, absent ones included: a timeline ends at its owner's
	// highest counter.
	Sends, Deliveries int
	// TimelineBytes is what the timelines' chunks occupy, IndexBytes the
	// duplicate indices' tables: allocated capacity, not the records' share.
	TimelineBytes, IndexBytes int
}

// CheckerStats returns the FBL checker's counters. Read it between runs, not
// while a sharded run is advancing.
func (c *Cluster) CheckerStats() CheckerStats {
	var st CheckerStats
	for i := range c.sends {
		st.Sends += int(c.sends[i].len())
		st.Deliveries += int(c.deliveries[i].len())
		st.TimelineBytes += c.sends[i].bytes() + c.deliveries[i].bytes()
		st.IndexBytes += 4 * len(c.seen[i].slots)
	}
	return st
}
