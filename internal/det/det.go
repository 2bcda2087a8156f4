// Package det implements determinants and the volatile determinant log of
// the Family-Based Logging protocols.
//
// A determinant #m = (sender, ssn, receiver, rsn) records the one
// nondeterministic outcome of delivering message m: the position it took in
// its receiver's delivery order. The FBL insight (paper §2) is that
// tolerating f failures only requires each determinant to reach the volatile
// stores of f+1 different hosts; the message data itself stays in the
// volatile store of its sender. Determinants spread causally: every outgoing
// message piggybacks the determinants its sender does not yet know to be
// replicated widely enough, so any process whose state causally depends on a
// delivery also holds (or once held) its determinant — which is exactly the
// property the paper's safety proof (§4.3) relies on.
package det

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"rollrec/internal/bitset"
	"rollrec/internal/ids"
)

// Determinant is the receipt-order record for one message delivery.
type Determinant struct {
	Msg      ids.MsgID  // the message: (sender, send sequence number)
	Receiver ids.ProcID // who delivered it
	RSN      ids.RSN    // position in the receiver's delivery order
}

// String renders the determinant.
func (d Determinant) String() string {
	return fmt.Sprintf("#(%v->%v@%d)", d.Msg, d.Receiver, d.RSN)
}

// Entry pairs a determinant with the set of hosts known to hold it. Entries
// travel on the wire inside piggyback lists and depinfo replies, carrying
// the holder estimate along so that receivers can stop forwarding
// determinants that are already stable.
type Entry struct {
	Det     Determinant
	Holders bitset.Set // indices per HolderIndex
}

// Clone returns a deep copy of the entry.
func (e Entry) Clone() Entry {
	return Entry{Det: e.Det, Holders: e.Holders.Clone()}
}

// HolderIndex maps a process identifier to its slot in holder sets for a
// cluster of n application processes. The stable-storage pseudo-process
// (f = n mode) occupies slot n. It returns -1 for identifiers that cannot
// hold determinants.
func HolderIndex(p ids.ProcID, n int) int {
	switch {
	case p.IsStorage():
		return n
	case p >= 0 && int(p) < n:
		return int(p)
	default:
		return -1
	}
}

// Config captures the replication rule parameters.
type Config struct {
	N int // number of application processes
	F int // failures to tolerate; F >= N selects the f = n (Manetho) instance
}

// Manetho reports whether the configuration is the f = n instance, where
// determinants are stable only once the stable-storage pseudo-process holds
// them (paper §3.3 models stable storage as a process that never fails).
func (c Config) Manetho() bool { return c.F >= c.N }

// Stable reports whether a determinant with the given holder set needs no
// further propagation: either f+1 hosts hold it, or — in the f = n
// instance — stable storage does.
func (c Config) Stable(holders bitset.Set) bool { return c.stable(holders.Words()) }

// stable is Stable on raw holder words (trailing zero words optional).
func (c Config) stable(w []uint64) bool {
	if c.Manetho() {
		return c.N/64 < len(w) && w[c.N/64]>>(uint(c.N)%64)&1 != 0
	}
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n >= c.F+1
}

// Log is a process's volatile determinant store. The zero value is not
// usable; construct with NewLog. Log is not safe for concurrent use — each
// process owns one and the runtimes serialize event handling per process.
//
// Entries live in a slab of fixed-size chunks that grows on demand, never
// copies a chunk it has filled, and recycles collected slots through a free
// list; holder sets sit beside the slots in the form the holder universe
// calls for (see holder storage below). Each entry carries the log
// generation of its last piece of news (modGen) — it was recorded, its
// holders changed while it was pending, or it crossed the stability
// threshold — and is threaded on two intrusive lists: the pending list (not
// yet stable) or the settled list (stable), both in modGen order, and the
// chain of its receiver. Piggyback selection for a destination is "walk a
// list back from its tail while modGen exceeds the generation of my last
// scan for that destination": cost proportional to what changed, and the
// only per-destination state is that one integer (DESIGN §5).
//
// Stability is final: holders that reach an entry after it became stable are
// unioned into the slab — depinfo replies (All, AllForReceivers) report them
// — but are not news. The entry keeps its generation and its place on the
// settled list, so no scan offers it again (DESIGN §10).
type Log struct {
	cfg    Config
	stride int  // dense holder words: bits 0..N
	wide   bool // stride > 1: holders are stored sparse, not as one word

	gen int // news counter; every stamp takes the next value

	// The slab: slot i is slots[i>>chunkBits][i&chunkMask], and its holders
	// sit at the same position of word (one-word logs) or inl (wide logs).
	// over is a wide log's overflow arena: dense sets of stride words, set k
	// at position k of the same chunking.
	slots  [][]slot
	word   [][]uint64
	inl    [][]sparse
	over   [][]uint64
	nslots int   // slots ever handed out: the slab's high-water mark
	free   int32 // recycled slots, linked through slot.next
	nfree  int
	nsets  int   // overflow sets ever handed out
	spare  int32 // recycled overflow sets, linked through their first word (+1)
	nover  int   // entries whose holders live in the overflow arena

	pending, settled list
	npending         int
	recv             []int32 // per-receiver chain heads, linked through slot.rnext

	// table is the id → slot index: open addressing with linear probing
	// over slab indices (stored +1, so zero means empty), a power of two in
	// size and at most half full, deleted from by backward shift. Nothing
	// iterates it, so its layout never reaches protocol-visible order.
	table []int32
	shift uint // 64 - log2(len(table))

	// scratch holds the holder words of the entry a scan is offering: a view
	// is valid until the next one is offered (see scan).
	scratch []uint64
	one     [1]uint64 // a one-word log's scratch

	onSettled func(ids.MsgID)
	late      int // holder unions that landed on an already-stable entry
}

const none = -1

// The slab's chunking. Every chunk after the first is allocated whole and
// never moves; the first grows by doubling up to the chunk size, so a log
// that stays small (the explorer builds one per process per branch) costs
// what it holds.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

type slot struct {
	det        Determinant
	modGen     int
	prev, next int32 // pending or settled list
	rnext      int32 // receiver chain
	stable     bool
}

// list is an intrusive doubly-linked list of slots, oldest change first.
type list struct{ head, tail int32 }

// NewLog returns an empty determinant log for the given configuration. It
// allocates the per-receiver chain heads (and a wide log's scratch) and
// nothing else: the explorer builds a log per process per branch.
func NewLog(cfg Config) *Log {
	l := &Log{
		cfg:     cfg,
		stride:  cfg.N/64 + 1,
		free:    none,
		spare:   none,
		pending: list{none, none},
		settled: list{none, none},
		recv:    make([]int32, cfg.N),
	}
	for i := range l.recv {
		l.recv[i] = none
	}
	l.scratch = l.one[:]
	if l.wide = l.stride > 1; l.wide {
		l.scratch = make([]uint64, l.stride)
	}
	return l
}

// OnSettled registers fn to be told, once per occurrence, when an entry
// leaves the pending set — it became stable, or was collected while still
// pending. The output-commit rule retires its wait entries from this. fn
// must not call back into the log.
func (l *Log) OnSettled(fn func(ids.MsgID)) { l.onSettled = fn }

// Len returns the number of determinants currently held.
func (l *Log) Len() int { return l.nslots - l.nfree }

// PendingCount returns the number of entries that are not yet stable — the
// stability lag: determinants still below the f+1-holder watermark, whose
// loss in a failure would orphan somebody.
func (l *Log) PendingCount() int { return l.npending }

// Stats is the log's account of itself; every field is an O(1) counter.
type Stats struct {
	Entries  int // determinants held
	Pending  int // of those, not yet stable
	SlabCap  int // slots ever handed out: the high-water mark of Entries
	SlabFree int // of those, collected and awaiting reuse
	// LateUnions counts, over the log's lifetime, the holder-set changes
	// that reached an entry already stable: stored, never re-offered.
	LateUnions int
	// SlabBytes is what the slot chunks and the id table occupy, HolderBytes
	// what the holder sets do (per-slot words or inline lists, plus the
	// overflow arena): allocated capacity, not just the live entries' share.
	SlabBytes, HolderBytes int
	// Inline and Overflowed split a wide log's entries by where their
	// holders live: in the slot's inline list, or spilled to a dense set of
	// the overflow arena. Both are zero when the universe fits one word.
	Inline, Overflowed int
}

// Stats returns the log's current counters.
func (l *Log) Stats() Stats {
	st := Stats{Entries: l.Len(), Pending: l.npending, SlabCap: l.nslots, SlabFree: l.nfree, LateUnions: l.late}
	slots := chunkedCap(l.slots, 1)
	st.SlabBytes = slots*int(unsafe.Sizeof(slot{})) + 4*len(l.table)
	st.HolderBytes = 8 * slots
	if l.wide {
		st.HolderBytes = slots*int(unsafe.Sizeof(sparse{})) + 8*l.stride*chunkedCap(l.over, l.stride)
		st.Inline, st.Overflowed = l.Len()-l.nover, l.nover
	}
	return st
}

// extend makes room for index i, the next one never used, in a chunked
// array of per elements an index: a chunk that is not the first is allocated
// whole, the first doubles until it is a whole chunk. Nothing past the first
// chunk is ever copied.
func extend[T any](chunks [][]T, i, per int) [][]T {
	c, j := i>>chunkBits, i&chunkMask
	if c == len(chunks) {
		//rollvet:allow hotalloc -- one slice header per chunk of 256 slots
		chunks = append(chunks, nil)
	}
	if j*per == len(chunks[c]) {
		size := chunkSize
		if c == 0 {
			size = max(1, 2*j) // 1, 2, 4, …, chunkSize
		}
		//rollvet:allow hotalloc -- slab growth, a chunk at a time; collected slots are reused through the free list
		grown := make([]T, size*per)
		copy(grown, chunks[c])
		chunks[c] = grown
	}
	return chunks
}

// chunkedCap returns how many indices the chunks of extend have room for.
func chunkedCap[T any](chunks [][]T, per int) int {
	if len(chunks) == 0 {
		return 0
	}
	return len(chunks[0])/per + (len(chunks)-1)*chunkSize
}

func (l *Log) at(i int32) *slot { return &l.slots[i>>chunkBits][i&chunkMask] }

func (l *Log) listOf(stable bool) *list {
	if stable {
		return &l.settled
	}
	return &l.pending
}

func (l *Log) pushTail(lst *list, i int32) {
	s := l.at(i)
	s.prev, s.next = lst.tail, none
	if lst.tail >= 0 {
		l.at(lst.tail).next = i
	} else {
		lst.head = i
	}
	lst.tail = i
}

func (l *Log) unlink(lst *list, i int32) {
	s := l.at(i)
	if s.prev >= 0 {
		l.at(s.prev).next = s.next
	} else {
		lst.head = s.next
	}
	if s.next >= 0 {
		l.at(s.next).prev = s.prev
	} else {
		lst.tail = s.prev
	}
}

func hash(id ids.MsgID) uint64 {
	return uint64(id.SSN)*0x9E3779B97F4A7C15 + uint64(uint32(id.Sender))*0xC2B2AE3D27D4EB4F
}

// find returns the slot holding id's determinant, or none.
func (l *Log) find(id ids.MsgID) int32 {
	if len(l.table) == 0 {
		return none
	}
	mask := uint64(len(l.table) - 1)
	for h := hash(id) >> l.shift; ; h = (h + 1) & mask {
		ref := l.table[h]
		if ref == 0 {
			return none
		}
		if l.at(ref-1).det.Msg == id {
			return ref - 1
		}
	}
}

// index enters slot i into the table, doubling it first when it would pass
// half full.
func (l *Log) index(i int32) {
	if 2*l.Len() > len(l.table) {
		//rollvet:allow hotalloc -- table doubling is amortized over the inserts that filled it
		l.table = make([]int32, max(16, 2*len(l.table)))
		l.shift = uint(64 - bits.TrailingZeros(uint(len(l.table))))
		for _, lst := range [2]list{l.pending, l.settled} {
			for j := lst.head; j >= 0; j = l.at(j).next {
				l.place(j)
			}
		}
	}
	l.place(i)
}

func (l *Log) place(i int32) {
	mask := uint64(len(l.table) - 1)
	h := hash(l.at(i).det.Msg) >> l.shift
	for l.table[h] != 0 {
		h = (h + 1) & mask
	}
	l.table[h] = i + 1
}

// unindex removes slot i from the table, then closes the hole by pulling
// back every later member of the probe run whose home bucket lies at or
// before it, so lookups never need tombstones.
func (l *Log) unindex(i int32) {
	mask := uint64(len(l.table) - 1)
	h := hash(l.at(i).det.Msg) >> l.shift
	for l.table[h] != i+1 {
		h = (h + 1) & mask
	}
	for j := (h + 1) & mask; l.table[j] != 0; j = (j + 1) & mask {
		home := hash(l.at(l.table[j]-1).det.Msg) >> l.shift
		if (j-home)&mask >= (j-h)&mask {
			l.table[h] = l.table[j]
			h = j
		}
	}
	l.table[h] = 0
}

// Holder storage. One rule selects the form, from the configuration alone:
// when the holder universe 0..N fits one word (N < 64) a slot's holders are
// that word; otherwise they are a sparse — the paper's rule stops a
// determinant at f+1 holders, so a set is a handful of indices however wide
// the universe — and only a set that outgrows the inline list moves, for
// good, to a dense set of stride words in the overflow arena (broadcast mode
// at n ≥ 64, where late holders keep arriving; a budget of f ≥ 7).

// sparse is a wide log's holder set in 16 bytes: up to seven holder indices
// in ascending order, or the overflow set the entry spilled to.
type sparse struct {
	n   uint8     // indices held in idx; spilled: idx[0], idx[1] name the overflow set
	idx [7]uint16 // N ≤ 1024 (cluster.MaxProcs): an index fits 16 bits
}

const spilled = 0xFF

func (l *Log) sparseAt(i int32) *sparse { return &l.inl[i>>chunkBits][i&chunkMask] }

// set names the overflow set a spilled entry's holders live in.
func (s *sparse) set() int32 { return int32(s.idx[0]) | int32(s.idx[1])<<16 }

// dense returns overflow set k.
func (l *Log) dense(k int32) []uint64 {
	at := int(k&chunkMask) * l.stride
	return l.over[k>>chunkBits][at : at+l.stride]
}

// spill moves wide entry i's inline holders to an overflow set: a recycled
// one, or the next of the arena.
func (l *Log) spill(i int32) {
	k := l.spare
	if k >= 0 {
		w := l.dense(k)
		l.spare, w[0] = int32(w[0])-1, 0
	} else {
		k = int32(l.nsets)
		l.nsets++
		l.over = extend(l.over, int(k), l.stride)
	}
	s, w := l.sparseAt(i), l.dense(k)
	for _, b := range s.idx[:s.n] {
		w[b/64] |= 1 << (b % 64)
	}
	*s = sparse{n: spilled, idx: [7]uint16{uint16(k), uint16(k >> 16)}}
	l.nover++
}

// add inserts holder index b (below 64·stride) into wide entry i and reports
// whether it was new.
func (l *Log) add(i int32, b int) bool {
	s := l.sparseAt(i)
	if s.n == spilled {
		w := l.dense(s.set())
		if w[b/64]&(1<<uint(b%64)) != 0 {
			return false
		}
		w[b/64] |= 1 << uint(b%64)
		return true
	}
	at := int(s.n)
	for ; at > 0 && int(s.idx[at-1]) >= b; at-- {
		if int(s.idx[at-1]) == b {
			return false
		}
	}
	if int(s.n) == len(s.idx) {
		l.spill(i)
		return l.add(i, b)
	}
	copy(s.idx[at+1:], s.idx[at:s.n])
	s.idx[at] = uint16(b)
	s.n++
	return true
}

// union ors o and the slot of process also into entry i's holders and
// reports whether they changed. Bits past the holder universe can only
// come from a malformed frame and are dropped.
func (l *Log) union(i int32, o bitset.Set, also ids.ProcID) bool {
	ow, b := o.Words(), HolderIndex(also, l.cfg.N)
	if !l.wide {
		w := &l.word[i>>chunkBits][i&chunkMask]
		x := *w
		if len(ow) > 0 {
			x |= ow[0]
		}
		if b >= 0 {
			x |= 1 << uint(b)
		}
		changed := x != *w
		*w = x
		return changed
	}
	changed := false
	s := l.sparseAt(i)
	for j, x := range ow[:min(len(ow), l.stride)] {
		if s.n == spilled {
			if w := l.dense(s.set()); w[j]|x != w[j] {
				w[j] |= x
				changed = true
			}
			continue
		}
		for ; x != 0; x &= x - 1 { // s may spill under add; add copes
			if l.add(i, j*64+bits.TrailingZeros64(x)) {
				changed = true
			}
		}
	}
	if b >= 0 && l.add(i, b) {
		changed = true
	}
	return changed
}

// stableAt is Config.stable on entry i's holders in their stored form.
func (l *Log) stableAt(i int32) bool {
	if !l.wide {
		return l.cfg.stable(l.word[i>>chunkBits][i&chunkMask:][:1])
	}
	s := l.sparseAt(i)
	switch {
	case s.n == spilled:
		return l.cfg.stable(l.dense(s.set()))
	case l.cfg.Manetho():
		return slices.Contains(s.idx[:s.n], uint16(l.cfg.N))
	}
	return int(s.n) >= l.cfg.F+1
}

// trimmed drops trailing zero words, as the wire does.
func trimmed(w []uint64) []uint64 { return bitset.View(w).Words() }

// holderLen returns how many dense words entry i's holders take once
// trailing zero words are trimmed: the length of its set on the wire.
func (l *Log) holderLen(i int32) int {
	if !l.wide {
		return len(trimmed(l.word[i>>chunkBits][i&chunkMask:][:1]))
	}
	s := l.sparseAt(i)
	switch {
	case s.n == spilled:
		return len(trimmed(l.dense(s.set())))
	case s.n == 0:
		return 0
	}
	return int(s.idx[s.n-1])/64 + 1
}

// holdersInto materialises entry i's holders as dense words at the start of
// buf, which has room for them (holderLen), and returns that part of buf:
// the same trimmed words whatever form they are stored in.
func (l *Log) holdersInto(i int32, buf []uint64) []uint64 {
	if !l.wide {
		buf[0] = l.word[i>>chunkBits][i&chunkMask]
		return trimmed(buf[:1])
	}
	s := l.sparseAt(i)
	switch {
	case s.n == spilled:
		return buf[:copy(buf, trimmed(l.dense(s.set())))]
	case s.n == 0:
		return buf[:0]
	}
	w := buf[:int(s.idx[s.n-1])/64+1]
	clear(w)
	for _, b := range s.idx[:s.n] {
		w[b/64] |= 1 << (b % 64)
	}
	return w
}

// dropHolders empties the holder set of a collected entry and recycles its
// overflow set, if it had one.
func (l *Log) dropHolders(i int32) {
	if !l.wide {
		l.word[i>>chunkBits][i&chunkMask] = 0
		return
	}
	s := l.sparseAt(i)
	if s.n == spilled {
		w := l.dense(s.set())
		clear(w)
		w[0] = uint64(l.spare + 1)
		l.spare = s.set()
		l.nover--
	}
	*s = sparse{}
}

// RecordError reports a determinant Record refused: Got names a receiver
// that is not an application process (or RSN 0) when Have is the zero
// value, and otherwise disagrees with the stored Have about the receiver or
// receipt order of the same message — two executions delivered one message
// differently, which the protocol must never allow.
type RecordError struct{ Have, Got Determinant }

func (e RecordError) Error() string {
	if e.Have == (Determinant{}) {
		return fmt.Sprintf("det: invalid determinant %v", e.Got)
	}
	return fmt.Sprintf("det: conflicting determinants for %v: have %v, got %v", e.Got.Msg, e.Have, e.Got)
}

// Record merges an entry into the log: a new determinant is stored, a known
// one has its holder set unioned. It returns a RecordError for a
// determinant it cannot store or that conflicts with the stored one.
func (l *Log) Record(e Entry) error { return l.RecordHeld(e, ids.Nobody) }

// RecordHeld is Record with process also added to the entry's holders: the
// absorbing process itself, which now stores the receipt order too. The
// entry is copied into the slab; e.Holders is neither kept nor modified.
//
//rollvet:hotpath
func (l *Log) RecordHeld(e Entry, also ids.ProcID) error {
	d := e.Det
	if d.RSN == 0 || !l.delivers(d.Receiver) {
		return RecordError{Got: d}
	}
	if i := l.find(d.Msg); i >= 0 {
		if have := l.at(i).det; have != d {
			return RecordError{Have: have, Got: d}
		}
		if l.union(i, e.Holders, also) {
			l.modified(i)
		}
		return nil
	}
	i := l.free
	if i >= 0 {
		l.free = l.at(i).next
		l.nfree--
	} else {
		i = int32(l.nslots)
		l.nslots++
		l.slots = extend(l.slots, int(i), 1)
		if l.wide {
			l.inl = extend(l.inl, int(i), 1)
		} else {
			l.word = extend(l.word, int(i), 1)
		}
	}
	s := l.at(i)
	*s = slot{det: d, rnext: l.recv[d.Receiver]}
	l.recv[d.Receiver] = i
	l.index(i)
	l.union(i, e.Holders, also)
	if s.stable = l.stableAt(i); !s.stable {
		l.npending++
	}
	l.stamp(i)
	return nil
}

// delivers reports whether p can be a determinant's receiver: only an
// application process delivers messages.
func (l *Log) delivers(p ids.ProcID) bool { return p >= 0 && int(p) < len(l.recv) }

// stamp gives entry i a fresh generation and appends it to the list its
// stability puts it on.
func (l *Log) stamp(i int32) {
	l.gen++
	s := l.at(i)
	s.modGen = l.gen
	l.pushTail(l.listOf(s.stable), i)
}

// modified is told that entry i's holders grew. While the entry is pending
// that is news: it is re-stamped and moved to the tail of the list it now
// belongs on, and OnSettled hears of it if this change crossed the
// stability threshold. Once stable, growth is only counted — the paper's
// rule is that a receipt order stops propagating "as soon as it has been
// recorded in f+1 hosts", not one holder later.
func (l *Log) modified(i int32) {
	s := l.at(i)
	if s.stable {
		l.late++
		return
	}
	l.unlink(&l.pending, i)
	if l.stableAt(i) {
		s.stable = true
		l.npending--
	}
	l.stamp(i)
	if s.stable && l.onSettled != nil {
		l.onSettled(s.det.Msg)
	}
}

// AddHolder marks process p as holding the determinant of msg, if known.
//
//rollvet:hotpath
func (l *Log) AddHolder(msg ids.MsgID, p ids.ProcID) {
	if i := l.find(msg); i >= 0 && l.union(i, bitset.Set{}, p) {
		l.modified(i)
	}
}

// entries returns copies of the given slots' entries, which the caller owns,
// in deterministic (sender, ssn) order. Their holder words are carved from
// one arena sized up front.
func (l *Log) entries(slots []int32) []Entry {
	total := 0
	for _, i := range slots {
		total += l.holderLen(i)
	}
	arena := make([]uint64, total)
	out := make([]Entry, len(slots))
	for k, i := range slots {
		out[k].Det = l.at(i).det
		if w := l.holdersInto(i, arena); len(w) > 0 {
			out[k].Holders = bitset.View(w[:len(w):len(w)])
			arena = arena[len(w):]
		}
	}
	sortEntries(out)
	return out
}

// Lookup returns the determinant entry for msg, if present.
func (l *Log) Lookup(msg ids.MsgID) (Entry, bool) {
	if i := l.find(msg); i >= 0 {
		return l.entries([]int32{i})[0], true
	}
	return Entry{}, false
}

// StableOrGone reports whether msg needs no further replication: its
// determinant is either stable or no longer tracked (garbage-collected,
// which only happens once its receiver checkpointed past the delivery).
func (l *Log) StableOrGone(msg ids.MsgID) bool {
	i := l.find(msg)
	return i < 0 || l.at(i).stable
}

// scan invokes fn with a view of every entry on lst modified after
// generation since, oldest change first. The view's holder set is
// materialised in the log's scratch (bitset.View): the next entry offered
// overwrites it and nothing else does, so fn reads it or copies what it
// keeps. fn must not modify the log.
//
//rollvet:hotpath
func (l *Log) scan(lst list, since int, fn func(Entry)) {
	first := int32(none)
	for i := lst.tail; i >= 0; {
		s := l.at(i)
		if s.modGen <= since {
			break
		}
		first, i = i, s.prev
	}
	for i := first; i >= 0; {
		s := l.at(i)
		fn(Entry{Det: s.det, Holders: bitset.View(l.holdersInto(i, l.scratch))})
		i = s.next
	}
}

// ScanPendingModified invokes fn with a view (see scan) of every non-stable
// entry recorded, or whose holders changed, after generation since (zero or
// negative: every pending entry) and returns the current generation — the
// value to pass next time to see only what changed in between. This is
// piggyback selection: the caller keeps one generation per destination and
// copies the entries it decides to send, nothing else.
func (l *Log) ScanPendingModified(since int, fn func(Entry)) int {
	l.scan(l.pending, since, fn)
	return l.gen
}

// ScanModified is ScanPendingModified without the stability filter: fn
// also receives the entries that crossed the f+1 threshold, or were first
// recorded already past it, after generation since — once each, whatever
// their holders do afterwards. The output-commit piggyback path uses it so
// holder knowledge travels one hop further than replication needs — the
// process whose delivery an entry records can only release dependent output
// once IT learns the entry is stable; with the stability-filtered scan that
// knowledge would arrive only with its next checkpoint (see fbl/send.go).
func (l *Log) ScanModified(since int, fn func(Entry)) int {
	l.scan(l.pending, since, fn)
	l.scan(l.settled, since, fn)
	return l.gen
}

// PendingIDs invokes fn with the id of every non-stable entry. Unlike
// Pending it clones and sorts nothing.
//
//rollvet:hotpath
func (l *Log) PendingIDs(fn func(ids.MsgID)) {
	for i := l.pending.head; i >= 0; {
		s := l.at(i)
		fn(s.det.Msg)
		i = s.next
	}
}

// listed appends the slots on lst to out, oldest change first.
func (l *Log) listed(out []int32, lst list) []int32 {
	for i := lst.head; i >= 0; i = l.at(i).next {
		out = append(out, i)
	}
	return out
}

// Pending returns the entries that are not yet stable, in deterministic
// (sender, ssn) order: the set a process must piggyback to a peer it has
// offered nothing, and — in the f = n instance, where stable means held by
// the storage pseudo-process — the set still to stream to storage.
func (l *Log) Pending() []Entry {
	return l.entries(l.listed(make([]int32, 0, l.npending), l.pending))
}

// All returns every entry in deterministic order. Used when a live process
// answers the recovery leader's depinfo request (§3.4 step 5).
func (l *Log) All() []Entry {
	return l.entries(l.listed(l.listed(make([]int32, 0, l.Len()), l.pending), l.settled))
}

// chain returns the head of the entries recording deliveries at p, or none
// when p is not an application process.
func (l *Log) chain(p ids.ProcID) int32 {
	if !l.delivers(p) {
		return none
	}
	return l.recv[p]
}

// ForReceiver returns the determinants recording deliveries at process p
// with RSN strictly greater than after, in ascending RSN order: the replay
// schedule a recovering process must re-consume (paper §2.1).
func (l *Log) ForReceiver(p ids.ProcID, after ids.RSN) []Determinant {
	var out []Determinant
	for i := l.chain(p); i >= 0; i = l.at(i).rnext {
		if d := l.at(i).det; d.RSN > after {
			out = append(out, d)
		}
	}
	slices.SortFunc(out, func(a, b Determinant) int { return cmp.Compare(a.RSN, b.RSN) })
	return out
}

// AllForReceivers returns every entry recording a delivery at one of the
// given processes, in deterministic order. Scoped depinfo replies (fanout
// mode) use it so a live process ships only the determinants the recovering
// set can actually need, instead of its whole log.
func (l *Log) AllForReceivers(procs []ids.ProcID) []Entry {
	var slots []int32
	for _, p := range procs {
		for i := l.chain(p); i >= 0; i = l.at(i).rnext {
			slots = append(slots, i)
		}
	}
	return l.entries(slots)
}

// CountForReceivers returns len(AllForReceivers(procs)) by walking the
// chains, without copying or sorting an entry.
func (l *Log) CountForReceivers(procs []ids.ProcID) int {
	n := 0
	for _, p := range procs {
		for i := l.chain(p); i >= 0; i = l.at(i).rnext {
			n++
		}
	}
	return n
}

// GCReceiver drops determinants for deliveries at p with RSN <= upTo: once
// p has checkpointed past a delivery it can never be asked to replay it.
// It returns the number of entries discarded.
func (l *Log) GCReceiver(p ids.ProcID, upTo ids.RSN) int {
	if l.chain(p) < 0 {
		return 0
	}
	n := 0
	link := &l.recv[p]
	for i := *link; i >= 0; i = *link {
		s := l.at(i)
		if s.det.RSN > upTo {
			link = &s.rnext
			continue
		}
		*link = s.rnext
		l.unlink(l.listOf(s.stable), i)
		l.unindex(i)
		l.dropHolders(i)
		id, wasPending := s.det.Msg, !s.stable
		*s = slot{next: l.free}
		l.free = i
		l.nfree++
		n++
		if wasPending {
			l.npending--
			if l.onSettled != nil {
				l.onSettled(id)
			}
		}
	}
	return n
}

// MergeEntries records a batch, stopping at the first conflict.
func (l *Log) MergeEntries(entries []Entry) error {
	for _, e := range entries {
		if err := l.Record(e); err != nil {
			return err
		}
	}
	return nil
}

func sortEntries(s []Entry) {
	slices.SortFunc(s, func(a, b Entry) int {
		if c := cmp.Compare(a.Det.Msg.Sender, b.Det.Msg.Sender); c != 0 {
			return c
		}
		return cmp.Compare(a.Det.Msg.SSN, b.Det.Msg.SSN)
	})
}
