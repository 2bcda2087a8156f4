package det

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"rollrec/internal/bitset"
	"rollrec/internal/ids"
)

// refLog is the selection rule stated plainly, for the differential test: a
// map of entries, each with its news — the holder set as of its last change
// that counted: any change while the entry was pending, the one that made it
// stable included, and none after — and per destination the news every entry
// had at the previous scan for it. A scan offers the entries whose news
// differs from that memory, carrying the holders they have now. Collecting
// an entry forgets its memory, so a determinant re-recorded after GC is new
// again even with an equal holder set.
type refLog struct {
	cfg     Config
	ents    map[ids.MsgID]*refEntry
	memo    []map[ids.MsgID]string // per destination: id → news at its last scan
	settled []ids.MsgID            // ids that left the pending set, in no particular order
}

type refEntry struct {
	Entry
	news string
}

func newRef(cfg Config) *refLog {
	r := &refLog{cfg: cfg, ents: map[ids.MsgID]*refEntry{}, memo: make([]map[ids.MsgID]string, cfg.N)}
	for d := range r.memo {
		r.memo[d] = map[ids.MsgID]string{}
	}
	return r
}

func (r *refLog) record(e Entry, also int) {
	cur, ok := r.ents[e.Det.Msg]
	if !ok {
		cur = &refEntry{Entry: Entry{Det: e.Det}}
		r.ents[e.Det.Msg] = cur
	}
	wasStable := ok && r.cfg.Stable(cur.Holders)
	cur.Holders.Union(e.Holders)
	cur.Holders.Add(also)
	if wasStable {
		return // stability is final: stored, not news
	}
	cur.news = cur.Holders.String()
	if ok && r.cfg.Stable(cur.Holders) {
		r.settled = append(r.settled, e.Det.Msg)
	}
}

func (r *refLog) gc(p ids.ProcID, upTo ids.RSN) (n int) {
	for id, e := range r.ents {
		if e.Det.Receiver == p && e.Det.RSN <= upTo {
			if !r.cfg.Stable(e.Holders) {
				r.settled = append(r.settled, id)
			}
			delete(r.ents, id)
			for _, m := range r.memo {
				delete(m, id)
			}
			n++
		}
	}
	return n
}

// scan returns what a transmit to d offers: id → holders.
func (r *refLog) scan(d int, pendingOnly bool) map[ids.MsgID]string {
	out := map[ids.MsgID]string{}
	for id, e := range r.ents {
		if r.memo[d][id] != e.news && !(pendingOnly && r.cfg.Stable(e.Holders)) {
			out[id] = e.Holders.String()
		}
		r.memo[d][id] = e.news
	}
	return out
}

func (r *refLog) entries(keep func(*Entry) bool) []Entry {
	out := []Entry{}
	for _, e := range r.ents {
		if keep(&e.Entry) {
			out = append(out, e.Clone())
		}
	}
	slices.SortFunc(out, func(a, b Entry) int {
		if c := cmp.Compare(a.Det.Msg.Sender, b.Det.Msg.Sender); c != 0 {
			return c
		}
		return cmp.Compare(a.Det.Msg.SSN, b.Det.Msg.SSN)
	})
	return out
}

// canon makes entry lists comparable with reflect.DeepEqual regardless of
// holder-set backing capacity.
func canon(es []Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprint(e.Det, e.Holders)
	}
	return out
}

// canonSet is canon of a list whose order is the log's own: sorted, so that
// two lists of the same entries compare equal.
func canonSet(es []Entry) []string {
	out := canon(es)
	slices.Sort(out)
	return out
}

// viewMatches reports how v differs from want, a set of entries, or "": Each
// offers each entry once, the holders it has now, and Collect copies them in
// the order Each offered them.
func viewMatches(v View, want []Entry) string {
	var each []Entry
	v.Each(func(e Entry) { each = append(each, e.Clone()) })
	got := canonSet(each)
	if w := canonSet(want); !reflect.DeepEqual(got, w) || v.Len() != len(w) {
		return fmt.Sprintf("Each offered (Len %d)\n %v\nwant\n %v", v.Len(), got, w)
	}
	if c := canon(v.Collect()); !reflect.DeepEqual(c, canon(each)) {
		return fmt.Sprintf("Collect\n %v\nis not the order Each offered\n %v", c, canon(each))
	}
	return ""
}

func sortedIDs(s []ids.MsgID) []ids.MsgID {
	s = slices.Clone(s)
	ids.SortMsgIDs(s)
	return s
}

// TestLogMatchesReferenceModel runs modelRun over configurations that cross
// the holder universe with the failure budget so that every stored form is
// driven — one word (N < 64), the inline list and the overflow arena
// (N ≥ 64), and the storage bit of the f = n instance in each of them — and
// the log's own counters have to say each was, and that collected slots
// were reused.
func TestLogMatchesReferenceModel(t *testing.T) {
	var cfgs []Config
	for _, n := range []int{8, 63, 64, 200, 1024} {
		for _, f := range []int{1, 2, n} {
			cfgs = append(cfgs, Config{N: n, F: f})
		}
	}
	seeds := int64(2 * len(cfgs))
	if testing.Short() {
		seeds = int64(len(cfgs)) // one per configuration; the race pass runs -short
	}
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := cfgs[int(seed)%len(cfgs)]
		saw := modelRun(t, cfg, seed, 400, 0, 0)
		if wide := cfg.N >= 64; saw.inline != wide || saw.overflow != wide || !saw.stable || !saw.reuse {
			t.Fatalf("seed %d: %+v: saw inline sets %v, overflowed sets %v (want both %v), stable entries %v, reused slots %v (want true)",
				seed, cfg, saw.inline, saw.overflow, wide, saw.stable, saw.reuse)
		}
	}
}

// TestGrownSlabMatchesReferenceModel runs modelRun on a log prefilled past
// three chunk edges, narrow, wide and f = n: GC then frees slots all over
// the slab, records recycle them in chunks below the newest, and a reset
// keeps every chunk, garbage-filled, for the next life to overwrite.
func TestGrownSlabMatchesReferenceModel(t *testing.T) {
	for i, cfg := range []Config{{N: 8, F: 1}, {N: 200, F: 2}, {N: 64, F: 64}} {
		seed := int64(100 + i)
		saw := modelRun(t, cfg, seed, 400, 0, 3*chunkSize+10)
		if saw.edges < 3 || !saw.lowReuse || !saw.grownReset {
			t.Fatalf("seed %d: %+v: crossed %d chunk edges (want 3), reused a slot below the newest chunk %v, reset a grown log %v (want true)",
				seed, cfg, saw.edges, saw.lowReuse, saw.grownReset)
		}
	}
}

// FuzzLogMatchesModel runs modelRun on any configuration a slot can hold,
// narrow or wide, with sequence numbers offset up to the top of their 32
// bits: GC churn then unlinks id-table chains, reuses freed slots and
// regrows the table where the narrowed fields are at their widest. grown
// prefills the log past three chunk edges first.
func FuzzLogMatchesModel(f *testing.F) {
	f.Add(int64(1), 8, 1, uint64(0), false)
	f.Add(int64(2), 63, 63, uint64(math.MaxUint32), false)
	f.Add(int64(3), 64, 2, uint64(1)<<31, false)
	f.Add(int64(4), 1024, 1, uint64(math.MaxUint64), false)
	f.Add(int64(5), 200, 200, uint64(math.MaxUint32-30_000), false)
	f.Add(int64(6), 100, 3, uint64(math.MaxUint32-70_000), true)
	f.Fuzz(func(t *testing.T, seed int64, n, fail int, ssnBase uint64, grown bool) {
		n = 2 + int(uint(n)%1023)          // 2..1024, cluster.MaxProcs
		fail = 1 + int(uint(fail)%uint(n)) // 1..n, n being the f = n instance
		prefill := 0
		if grown {
			prefill = 3*chunkSize + 10
		}
		// The highest SSN and RSN a run makes are base+24+prefill and
		// base+(25+prefill)n.
		base := min(ssnBase, math.MaxUint32-uint64(25+prefill)*uint64(n))
		modelRun(t, Config{N: n, F: fail}, seed, 150, base, prefill)
	})
}

// modelSaw is what a modelRun drove, read from the log's own counters: the
// stored forms, stable entries and reused slots, and of the slab the chunk
// edges it crossed, a reuse below its newest chunk and a reset with more
// than three chunks kept.
type modelSaw struct {
	inline, overflow, stable, reuse bool
	edges                           int
	lowReuse, grownReset            bool
}

// modelRun drives the slab log and the reference with the same seeded random
// history of steps operations — records (fresh, repeated, and of collected
// determinants), holder additions, watermark and whole-receiver GC,
// per-destination scans in both variants (ScanModified on even seeds), reads
// of a whole, scoped or pending view, destination reincarnations, and resets
// of the whole log, which start the reference afresh — over sparse SSNs and
// RSNs offset by base, and requires equal offered sets at every scan and view
// read, and equal copies after every step. prefill entries, of SSNs above
// the history's, are recorded first.
func modelRun(t testing.TB, cfg Config, seed int64, steps int, base uint64, prefill int) (saw modelSaw) {
	t.Helper()
	outputs := seed%2 == 0 // the ScanModified variant
	rng := rand.New(rand.NewSource(seed))
	l, r := NewLog(cfg), newRef(cfg)
	var settled []ids.MsgID
	bornAt := map[ids.MsgID]int{} // Gen right after the record that created the entry
	onSettled := func(id ids.MsgID, born int) {
		if want := bornAt[id]; born != want || l.Gen() < born {
			t.Fatalf("seed %d: OnSettled(%v) born %d, want %d (Gen %d)", seed, id, born, want, l.Gen())
		}
		settled = append(settled, id)
	}
	l.OnSettled(onSettled)
	gen := make([]int, cfg.N) // per destination, as fbl.Process.scanGen
	// A message's determinant is a fixed function of its id, so repeats
	// and post-GC re-records never conflict; RSNs jump by up to n. A few
	// senders only, so that an id is recorded and added to many times
	// whatever the universe; receivers and holders range over all of it.
	senders := min(cfg.N, 6)
	detOf := func(sender, ssn int) Determinant {
		return Determinant{
			Msg:      ids.MsgID{Sender: ids.ProcID(sender), SSN: ids.SSN(base + uint64(ssn))},
			Receiver: ids.ProcID((sender*389 + ssn*101 + 1) % cfg.N),
			RSN:      ids.RSN(base + uint64(ssn*cfg.N+sender+1)),
		}
	}
	// Random picks are biased to where something is: a holder is the
	// storage pseudo-process (slot n, f = n only) one time in four, a
	// process is some determinant's receiver every other time.
	holder := func() int {
		if cfg.Manetho() && rng.Intn(4) == 0 {
			return cfg.N
		}
		return rng.Intn(cfg.N)
	}
	proc := func() ids.ProcID {
		if rng.Intn(2) == 0 {
			return detOf(rng.Intn(senders), 1+rng.Intn(24)).Receiver
		}
		return ids.ProcID(rng.Intn(cfg.N))
	}
	for j := range prefill {
		e := Entry{Det: detOf(j%senders, 25+j/senders), Holders: bitset.FromSlice([]int{holder()})}
		also := ids.ProcID(rng.Intn(cfg.N))
		if err := l.RecordHeld(e, also); err != nil {
			t.Fatal(err)
		}
		bornAt[e.Det.Msg] = l.Gen()
		r.record(e, int(also))
	}
	if prefill > 0 { // free slots in every chunk, oldest first, for the history to recycle
		p := detOf(0, 25).Receiver
		l.GCReceiver(p, math.MaxUint64)
		r.gc(p, math.MaxUint64)
	}
	for step := 0; step < steps; step++ {
		sender, ssn := rng.Intn(senders), 1+rng.Intn(24)
		switch op := rng.Intn(10); {
		case op < 4:
			holders := []int{holder(), holder()}
			if rng.Intn(8) == 0 { // a copy that has been around: more holders than an inline list takes
				for len(holders) < 10 {
					holders = append(holders, holder())
				}
			}
			e := Entry{Det: detOf(sender, ssn), Holders: bitset.FromSlice(holders)}
			also := ids.ProcID(rng.Intn(cfg.N))
			_, had := r.ents[e.Det.Msg]
			free := l.Stats().SlabFree
			if err := l.RecordHeld(e, also); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if st := l.Stats(); !had && st.SlabFree < free {
				saw.reuse = true
				saw.lowReuse = saw.lowReuse || int(l.find(e.Det.Msg)>>chunkBits) < (st.SlabCap-1)>>chunkBits
			}
			if !had {
				bornAt[e.Det.Msg] = l.Gen()
			}
			r.record(e, int(also))
		case op < 6:
			p := ids.ProcID(holder())
			if int(p) == cfg.N {
				p = ids.StorageProc
			}
			id := detOf(sender, ssn).Msg
			l.AddHolder(id, p)
			if _, ok := r.ents[id]; ok {
				r.record(Entry{Det: detOf(sender, ssn)}, HolderIndex(p, cfg.N))
			}
		case op < 7:
			p, upTo := proc(), ids.RSN(base+uint64(rng.Intn(25*cfg.N)))
			if rng.Intn(4) == 0 {
				upTo = math.MaxUint64
			}
			if got, want := l.GCReceiver(p, upTo), r.gc(p, upTo); got != want {
				t.Fatalf("seed %d step %d: GCReceiver(%v, %d) = %d, want %d", seed, step, p, upTo, got, want)
			}
		case op < 8 && step%7 == 0:
			d := rng.Intn(cfg.N) // d reincarnated
			gen[d] = -1
			r.memo[d] = map[ids.MsgID]string{}
		case op < 8 && step%7 == 3:
			// The log's process rebooted (node.Renew): now and then after a
			// life under another holder width, and always with every word it
			// keeps, used or not, left as garbage.
			if rng.Intn(2) == 0 {
				other := Config{N: 2 + (cfg.N+61)%1023, F: 1}
				l.Reset(other)
				for j := 1; j <= 20; j++ {
					d := Determinant{Msg: ids.MsgID{Sender: 0, SSN: ids.SSN(j)}, Receiver: ids.ProcID(j % other.N), RSN: ids.RSN(j)}
					if err := l.Record(Entry{Det: d, Holders: bitset.FromSlice([]int{j % other.N, (7 * j) % other.N})}); err != nil {
						t.Fatal(err)
					}
				}
			}
			saw.grownReset = saw.grownReset || len(l.slots) > 3
			fillGarbage(l)
			l.Reset(cfg)
			l.OnSettled(onSettled)
			r, settled, gen = newRef(cfg), nil, make([]int, cfg.N)
			clear(bornAt)
		case op == 8 && step%2 == 0:
			var v View
			var want []Entry
			switch p := proc(); rng.Intn(3) {
			case 0:
				v, want = l.View(nil), r.entries(func(*Entry) bool { return true })
			case 1:
				v, want = l.View([]ids.ProcID{p}), r.entries(func(e *Entry) bool { return e.Det.Receiver == p })
			default:
				v, want = l.PendingView(), r.entries(func(e *Entry) bool { return !cfg.Stable(e.Holders) })
			}
			if diff := viewMatches(v, want); diff != "" {
				t.Fatalf("seed %d step %d: view: %s", seed, step, diff)
			}
		default:
			d := rng.Intn(cfg.N)
			got := map[ids.MsgID]string{}
			offer := func(e Entry) {
				if _, dup := got[e.Det.Msg]; dup {
					t.Fatalf("seed %d step %d: %v offered twice in one scan", seed, step, e.Det.Msg)
				}
				got[e.Det.Msg] = e.Holders.String()
			}
			pendingOnly := !outputs || gen[d] < 0
			if pendingOnly {
				gen[d] = l.ScanPendingModified(gen[d], offer)
			} else {
				gen[d] = l.ScanModified(gen[d], offer)
			}
			if want := r.scan(d, pendingOnly); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: scan for %d (pendingOnly=%v) offered\n %v\nwant\n %v", seed, step, d, pendingOnly, got, want)
			}
		}

		pending := func(e *Entry) bool { return !cfg.Stable(e.Holders) }
		if got, want := canonSet(l.Pending()), canonSet(r.entries(pending)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d: Pending\n %v\nwant\n %v", seed, step, got, want)
		}
		if got, want := canon(l.All()), canon(r.entries(func(*Entry) bool { return true })); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d: All\n %v\nwant\n %v", seed, step, got, want)
		}
		var pendIDs []ids.MsgID
		l.PendingIDs(func(id ids.MsgID) { pendIDs = append(pendIDs, id) })
		if l.Len() != len(r.ents) || l.PendingCount() != len(r.entries(pending)) || len(pendIDs) != l.PendingCount() {
			t.Fatalf("seed %d step %d: Len %d PendingCount %d PendingIDs %d, want %d %d", seed, step,
				l.Len(), l.PendingCount(), len(pendIDs), len(r.ents), len(r.entries(pending)))
		}
		st := l.Stats()
		if st.Entries != l.Len() || st.Pending != l.PendingCount() || st.Entries+st.SlabFree != st.SlabCap ||
			st.SlabBytes < int(unsafe.Sizeof(slot{}))*st.SlabCap || st.HolderBytes < 8*st.SlabCap {
			t.Fatalf("seed %d step %d: inconsistent Stats %+v", seed, step, st)
		}
		if wide := cfg.N >= 64; wide && st.Inline+st.Overflowed != st.Entries || !wide && st.Inline+st.Overflowed != 0 {
			t.Fatalf("seed %d step %d: %v: %d inline + %d overflowed entries of %d", seed, step, cfg, st.Inline, st.Overflowed, st.Entries)
		}
		saw.inline, saw.overflow = saw.inline || st.Inline > 0, saw.overflow || st.Overflowed > 0
		saw.stable = saw.stable || st.Pending < st.Entries
		saw.edges = max(saw.edges, (st.SlabCap-1)>>chunkBits)
		if got, want := sortedIDs(settled), sortedIDs(r.settled); !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d: OnSettled told %v, want %v", seed, step, got, want)
		}
		settled, r.settled = settled[:0], r.settled[:0]
		p, after := proc(), ids.RSN(base+uint64(rng.Intn(12*cfg.N)))
		var want []Determinant
		for _, e := range r.entries(func(e *Entry) bool { return e.Det.Receiver == p && e.Det.RSN > after }) {
			want = append(want, e.Det)
		}
		slices.SortFunc(want, func(a, b Determinant) int { return int(a.RSN) - int(b.RSN) })
		if got := l.ForReceiver(p, after); !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d: ForReceiver(%v, %d) = %v, want %v", seed, step, p, after, got, want)
		}
		q := proc()
		scoped := r.entries(func(e *Entry) bool { return e.Det.Receiver == p || e.Det.Receiver == q })
		procs := []ids.ProcID{p, q}
		if p == q {
			procs = procs[:1]
		}
		if got, want := canonSet(l.View(procs).Collect()), canonSet(scoped); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d: View(%v)\n %v\nwant\n %v", seed, step, procs, got, want)
		}
		if got := l.CountForReceivers(procs); got != len(scoped) {
			t.Fatalf("seed %d step %d: CountForReceivers(%v) = %d, want %d", seed, step, procs, got, len(scoped))
		}
	}
	return saw
}

// fillGarbage overwrites every array l has — slab chunks, holder sets,
// overflow arena, id table, receiver heads, scratch — to the end of its
// capacity, so that a log that reads a word it kept across the Reset before
// writing it differs from a fresh one.
func fillGarbage(l *Log) {
	for _, c := range l.slots {
		garble(c)
	}
	for _, c := range l.word {
		garble(c)
	}
	for _, c := range l.inl {
		garble(c)
	}
	for _, c := range l.over {
		garble(c)
	}
	garble(l.table)
	garble(l.recv)
	garble(l.scratch)
}

// garble fills s's backing array, up to its capacity, with 0xA5 bytes.
func garble[T any](s []T) {
	s = s[:cap(s)]
	if len(s) == 0 {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
	for i := range b {
		b[i] = 0xA5
	}
}
