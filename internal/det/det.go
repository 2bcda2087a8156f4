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
// Entries live in a slab that grows on demand and recycles collected slots
// through a free list; holder sets sit in one arena at a fixed stride. Each
// entry carries the log generation of its last piece of news (modGen) — it
// was recorded, its holders changed while it was pending, or it crossed the
// stability threshold — and is threaded on two intrusive lists: the pending
// list (not yet stable) or the settled list (stable), both in modGen order,
// and the chain of its receiver. Piggyback selection for a destination is
// "walk a list back from its tail while modGen exceeds the generation of my
// last scan for that destination": cost proportional to what changed, and
// the only per-destination state is that one integer (DESIGN §5).
//
// Stability is final: holders that reach an entry after it became stable are
// unioned into the slab — depinfo replies (All, AllForReceivers) report them
// — but are not news. The entry keeps its generation and its place on the
// settled list, so no scan offers it again (DESIGN §10).
type Log struct {
	cfg    Config
	stride int // holder words per slot: bits 0..N

	gen   int // news counter; every stamp takes the next value
	slots []slot
	words []uint64 // holder arena: slot i owns words[i*stride:(i+1)*stride]
	free  int32    // recycled slots, linked through slot.next
	nfree int

	pending, settled list
	npending         int
	recv             []int32 // per-receiver chain heads, linked through slot.rnext

	// table is the id → slot index: open addressing with linear probing
	// over slab indices (stored +1, so zero means empty), a power of two in
	// size and at most half full, deleted from by backward shift. Nothing
	// iterates it, so its layout never reaches protocol-visible order.
	table []int32
	shift uint // 64 - log2(len(table))

	onSettled func(ids.MsgID)
	late      int // holder unions that landed on an already-stable entry
}

const none = -1

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
// allocates the per-receiver chain heads and nothing else: the explorer
// builds a log per process per branch.
func NewLog(cfg Config) *Log {
	l := &Log{
		cfg:     cfg,
		stride:  cfg.N/64 + 1,
		free:    none,
		pending: list{none, none},
		settled: list{none, none},
		recv:    make([]int32, cfg.N),
	}
	for i := range l.recv {
		l.recv[i] = none
	}
	return l
}

// OnSettled registers fn to be told, once per occurrence, when an entry
// leaves the pending set — it became stable, or was collected while still
// pending. The output-commit rule retires its wait entries from this. fn
// must not call back into the log.
func (l *Log) OnSettled(fn func(ids.MsgID)) { l.onSettled = fn }

// Len returns the number of determinants currently held.
func (l *Log) Len() int { return len(l.slots) - l.nfree }

// PendingCount returns the number of entries that are not yet stable — the
// stability lag: determinants still below the f+1-holder watermark, whose
// loss in a failure would orphan somebody.
func (l *Log) PendingCount() int { return l.npending }

// Stats is the log's account of itself; every field is an O(1) counter.
type Stats struct {
	Entries  int // determinants held
	Pending  int // of those, not yet stable
	SlabCap  int // slots ever allocated: the high-water mark of Entries
	SlabFree int // of those, collected and awaiting reuse
	// LateUnions counts, over the log's lifetime, the holder-set changes
	// that reached an entry already stable: stored, never re-offered.
	LateUnions int
}

// Stats returns the log's current counters.
func (l *Log) Stats() Stats {
	return Stats{Entries: l.Len(), Pending: l.npending, SlabCap: len(l.slots), SlabFree: l.nfree, LateUnions: l.late}
}

func (l *Log) holders(i int32) []uint64 {
	return l.words[int(i)*l.stride : (int(i)+1)*l.stride]
}

func (l *Log) listOf(stable bool) *list {
	if stable {
		return &l.settled
	}
	return &l.pending
}

func (l *Log) pushTail(lst *list, i int32) {
	s := &l.slots[i]
	s.prev, s.next = lst.tail, none
	if lst.tail >= 0 {
		l.slots[lst.tail].next = i
	} else {
		lst.head = i
	}
	lst.tail = i
}

func (l *Log) unlink(lst *list, i int32) {
	s := &l.slots[i]
	if s.prev >= 0 {
		l.slots[s.prev].next = s.next
	} else {
		lst.head = s.next
	}
	if s.next >= 0 {
		l.slots[s.next].prev = s.prev
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
		if l.slots[ref-1].det.Msg == id {
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
			for j := lst.head; j >= 0; j = l.slots[j].next {
				l.place(j)
			}
		}
	}
	l.place(i)
}

func (l *Log) place(i int32) {
	mask := uint64(len(l.table) - 1)
	h := hash(l.slots[i].det.Msg) >> l.shift
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
	h := hash(l.slots[i].det.Msg) >> l.shift
	for l.table[h] != i+1 {
		h = (h + 1) & mask
	}
	for j := (h + 1) & mask; l.table[j] != 0; j = (j + 1) & mask {
		home := hash(l.slots[l.table[j]-1].det.Msg) >> l.shift
		if (j-home)&mask >= (j-h)&mask {
			l.table[h] = l.table[j]
			h = j
		}
	}
	l.table[h] = 0
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
		if have := l.slots[i].det; have != d {
			return RecordError{Have: have, Got: d}
		}
		if l.union(i, e.Holders, also) {
			l.modified(i)
		}
		return nil
	}
	i := l.free
	if i >= 0 {
		l.free = l.slots[i].next
		l.nfree--
	} else {
		i = int32(len(l.slots))
		//rollvet:allow hotalloc -- slab growth is amortized; collected slots are reused through the free list
		l.slots = append(l.slots, slot{})
		for j := 0; j < l.stride; j++ {
			//rollvet:allow hotalloc -- arena growth, in step with the slab
			l.words = append(l.words, 0)
		}
	}
	l.slots[i] = slot{det: d, rnext: l.recv[d.Receiver]}
	l.recv[d.Receiver] = i
	l.index(i)
	l.union(i, e.Holders, also)
	if l.slots[i].stable = l.cfg.stable(l.holders(i)); !l.slots[i].stable {
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
	l.slots[i].modGen = l.gen
	l.pushTail(l.listOf(l.slots[i].stable), i)
}

// union ors o and the slot of process also into entry i's holders and
// reports whether they changed. Bits past the holder universe can only
// come from a malformed frame and are dropped.
func (l *Log) union(i int32, o bitset.Set, also ids.ProcID) bool {
	w := l.holders(i)
	changed := false
	for j, x := range o.Words() {
		if j == len(w) {
			break
		}
		if w[j]|x != w[j] {
			w[j] |= x
			changed = true
		}
	}
	if b := HolderIndex(also, l.cfg.N); b >= 0 && w[b/64]&(1<<uint(b%64)) == 0 {
		w[b/64] |= 1 << uint(b%64)
		changed = true
	}
	return changed
}

// modified is told that entry i's holders grew. While the entry is pending
// that is news: it is re-stamped and moved to the tail of the list it now
// belongs on, and OnSettled hears of it if this change crossed the
// stability threshold. Once stable, growth is only counted — the paper's
// rule is that a receipt order stops propagating "as soon as it has been
// recorded in f+1 hosts", not one holder later.
func (l *Log) modified(i int32) {
	s := &l.slots[i]
	if s.stable {
		l.late++
		return
	}
	l.unlink(&l.pending, i)
	if l.cfg.stable(l.holders(i)) {
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

// view returns entry i with its holder set, trimmed to the words in use,
// aliasing the slab arena: valid until the log is next modified.
func (l *Log) view(i int32) Entry {
	w := l.holders(i)
	for len(w) > 0 && w[len(w)-1] == 0 {
		w = w[:len(w)-1]
	}
	return Entry{Det: l.slots[i].det, Holders: bitset.View(w)}
}

// entry returns a copy of entry i that the caller owns.
func (l *Log) entry(i int32) Entry { return l.view(i).Clone() }

// Lookup returns the determinant entry for msg, if present.
func (l *Log) Lookup(msg ids.MsgID) (Entry, bool) {
	if i := l.find(msg); i >= 0 {
		return l.entry(i), true
	}
	return Entry{}, false
}

// StableOrGone reports whether msg needs no further replication: its
// determinant is either stable or no longer tracked (garbage-collected,
// which only happens once its receiver checkpointed past the delivery).
func (l *Log) StableOrGone(msg ids.MsgID) bool {
	i := l.find(msg)
	return i < 0 || l.slots[i].stable
}

// scan invokes fn with a view of every entry on lst modified after
// generation since, oldest change first. The view's holder set aliases the
// slab (bitset.View): fn reads it or copies what it keeps, and must not
// modify the log.
//
//rollvet:hotpath
func (l *Log) scan(lst list, since int, fn func(Entry)) {
	first := int32(none)
	for i := lst.tail; i >= 0 && l.slots[i].modGen > since; i = l.slots[i].prev {
		first = i
	}
	for i := first; i >= 0; i = l.slots[i].next {
		fn(l.view(i))
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
	for i := l.pending.head; i >= 0; i = l.slots[i].next {
		fn(l.slots[i].det.Msg)
	}
}

// Pending returns the entries that are not yet stable, in deterministic
// (sender, ssn) order: the set a process must piggyback to a peer it has
// offered nothing, and — in the f = n instance, where stable means held by
// the storage pseudo-process — the set still to stream to storage.
func (l *Log) Pending() []Entry {
	out := make([]Entry, 0, l.npending)
	for i := l.pending.head; i >= 0; i = l.slots[i].next {
		out = append(out, l.entry(i))
	}
	sortEntries(out)
	return out
}

// All returns every entry in deterministic order. Used when a live process
// answers the recovery leader's depinfo request (§3.4 step 5).
func (l *Log) All() []Entry {
	out := make([]Entry, 0, l.Len())
	for _, lst := range [2]list{l.pending, l.settled} {
		for i := lst.head; i >= 0; i = l.slots[i].next {
			out = append(out, l.entry(i))
		}
	}
	sortEntries(out)
	return out
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
	for i := l.chain(p); i >= 0; i = l.slots[i].rnext {
		if d := l.slots[i].det; d.RSN > after {
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
	var out []Entry
	for _, p := range procs {
		for i := l.chain(p); i >= 0; i = l.slots[i].rnext {
			out = append(out, l.entry(i))
		}
	}
	sortEntries(out)
	return out
}

// CountForReceivers returns len(AllForReceivers(procs)) by walking the
// chains, without copying or sorting an entry.
func (l *Log) CountForReceivers(procs []ids.ProcID) int {
	n := 0
	for _, p := range procs {
		for i := l.chain(p); i >= 0; i = l.slots[i].rnext {
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
		s := &l.slots[i]
		if s.det.RSN > upTo {
			link = &s.rnext
			continue
		}
		*link = s.rnext
		l.unlink(l.listOf(s.stable), i)
		l.unindex(i)
		clear(l.holders(i))
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
