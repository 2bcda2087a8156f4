package det

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

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
	sortEntries(out)
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

func sortedIDs(s []ids.MsgID) []ids.MsgID {
	s = slices.Clone(s)
	ids.SortMsgIDs(s)
	return s
}

// TestLogMatchesReferenceModel drives the slab log and the reference with
// the same seeded random histories — records (fresh, repeated, and of
// collected determinants), holder additions, watermark and whole-receiver
// GC, per-destination scans in both variants, reincarnation resets — over
// sparse RSNs, and requires equal offered sets at every scan and equal
// views after every step. Configurations cross the holder universe with the
// failure budget so that every stored form is driven — one word (N < 64),
// the inline list and the overflow arena (N ≥ 64), and the storage bit of
// the f = n instance in each of them — and the log's own counters have to
// say each was.
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
		outputs := (seed/int64(len(cfgs)))%2 == 0 // the ScanModified variant
		rng := rand.New(rand.NewSource(seed))
		l, r := NewLog(cfg), newRef(cfg)
		var settled []ids.MsgID
		l.OnSettled(func(id ids.MsgID) { settled = append(settled, id) })
		gen := make([]int, cfg.N) // per destination, as fbl.Process.scanGen
		// A message's determinant is a fixed function of its id, so repeats
		// and post-GC re-records never conflict; RSNs jump by up to n. A few
		// senders only, so that an id is recorded and added to many times
		// whatever the universe; receivers and holders range over all of it.
		senders := min(cfg.N, 6)
		detOf := func(sender, ssn int) Determinant {
			return Determinant{
				Msg:      ids.MsgID{Sender: ids.ProcID(sender), SSN: ids.SSN(ssn)},
				Receiver: ids.ProcID((sender*389 + ssn*101 + 1) % cfg.N),
				RSN:      ids.RSN(ssn*cfg.N + sender + 1),
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
		var sawInline, sawOverflow, sawStable bool
		for step := 0; step < 400; step++ {
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
				if err := l.RecordHeld(e, also); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
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
				p, upTo := proc(), ids.RSN(rng.Intn(25*cfg.N))
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
			if got, want := canon(l.Pending()), canon(r.entries(pending)); !reflect.DeepEqual(got, want) {
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
				st.SlabBytes < 56*st.SlabCap || st.HolderBytes < 8*st.SlabCap {
				t.Fatalf("seed %d step %d: inconsistent Stats %+v", seed, step, st)
			}
			if wide := cfg.N >= 64; wide && st.Inline+st.Overflowed != st.Entries || !wide && st.Inline+st.Overflowed != 0 {
				t.Fatalf("seed %d step %d: %v: %d inline + %d overflowed entries of %d", seed, step, cfg, st.Inline, st.Overflowed, st.Entries)
			}
			sawInline, sawOverflow = sawInline || st.Inline > 0, sawOverflow || st.Overflowed > 0
			sawStable = sawStable || st.Pending < st.Entries
			if got, want := sortedIDs(settled), sortedIDs(r.settled); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: OnSettled told %v, want %v", seed, step, got, want)
			}
			settled, r.settled = settled[:0], r.settled[:0]
			p, after := proc(), ids.RSN(rng.Intn(12*cfg.N))
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
			if got, want := canon(l.AllForReceivers(procs)), canon(scoped); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: AllForReceivers(%v)\n %v\nwant\n %v", seed, step, procs, got, want)
			}
			if got := l.CountForReceivers(procs); got != len(scoped) {
				t.Fatalf("seed %d step %d: CountForReceivers(%v) = %d, want %d", seed, step, procs, got, len(scoped))
			}
		}
		if wide := cfg.N >= 64; sawInline != wide || sawOverflow != wide || !sawStable {
			t.Fatalf("seed %d: %+v: saw inline sets %v, overflowed sets %v (want both %v), stable entries %v (want true)",
				seed, cfg, sawInline, sawOverflow, wide, sawStable)
		}
	}
}
