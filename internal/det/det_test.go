package det

import (
	"errors"
	"testing"
	"testing/quick"

	"rollrec/internal/bitset"
	"rollrec/internal/ids"
)

func entry(sender ids.ProcID, ssn ids.SSN, recv ids.ProcID, rsn ids.RSN, holders ...int) Entry {
	return Entry{
		Det:     Determinant{Msg: ids.MsgID{Sender: sender, SSN: ssn}, Receiver: recv, RSN: rsn},
		Holders: bitset.FromSlice(holders),
	}
}

func TestHolderIndex(t *testing.T) {
	const n = 4
	if got := HolderIndex(2, n); got != 2 {
		t.Fatalf("HolderIndex(2) = %d", got)
	}
	if got := HolderIndex(ids.StorageProc, n); got != n {
		t.Fatalf("HolderIndex(storage) = %d, want %d", got, n)
	}
	if got := HolderIndex(9, n); got != -1 {
		t.Fatalf("HolderIndex(out of range) = %d, want -1", got)
	}
	if got := HolderIndex(ids.Nobody, n); got != -1 {
		t.Fatalf("HolderIndex(nobody) = %d, want -1", got)
	}
}

func TestStableRule(t *testing.T) {
	cfg := Config{N: 4, F: 2}
	h := bitset.FromSlice([]int{0, 1})
	if cfg.Stable(h) {
		t.Fatal("2 holders must not be stable for f=2")
	}
	h.Add(3)
	if !cfg.Stable(h) {
		t.Fatal("3 holders must be stable for f=2")
	}
}

func TestStableRuleManetho(t *testing.T) {
	cfg := Config{N: 4, F: 4}
	if !cfg.Manetho() {
		t.Fatal("f=n must select Manetho mode")
	}
	h := bitset.FromSlice([]int{0, 1, 2, 3})
	if cfg.Stable(h) {
		t.Fatal("all volatile holders are not enough in f=n mode")
	}
	h.Add(4) // storage slot
	if !cfg.Stable(h) {
		t.Fatal("storage holder must make the determinant stable in f=n mode")
	}
}

func TestRecordAndMergeHolders(t *testing.T) {
	l := NewLog(Config{N: 4, F: 2})
	if err := l.Record(entry(0, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(entry(0, 1, 1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	e, ok := l.Lookup(ids.MsgID{Sender: 0, SSN: 1})
	if !ok {
		t.Fatal("determinant missing after Record")
	}
	if !e.Holders.Contains(1) || !e.Holders.Contains(2) {
		t.Fatalf("holders not merged: %v", e.Holders)
	}
}

func TestRecordConflict(t *testing.T) {
	l := NewLog(Config{N: 4, F: 2})
	if err := l.Record(entry(0, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(entry(0, 1, 1, 2, 1)); err == nil {
		t.Fatal("conflicting RSN for the same message must be rejected")
	}
	if err := l.Record(entry(0, 1, 2, 1, 1)); err == nil {
		t.Fatal("conflicting receiver for the same message must be rejected")
	}
}

// TestRecordRejectsWhatItCannotChain: the receiver indexes a per-receiver
// chain, so a determinant naming anything but an application process (a
// decoded frame can carry any int32) is an error, never an index panic;
// RSN 0 is no delivery at all. The per-receiver reads treat such receivers
// as having no entries.
func TestRecordRejectsWhatItCannotChain(t *testing.T) {
	l := NewLog(Config{N: 4, F: 2})
	for _, e := range []Entry{
		entry(0, 1, 4, 1, 0),               // one past the last process
		entry(0, 1, ids.StorageProc, 1, 0), // storage holds determinants, it delivers nothing
		entry(0, 1, ids.Nobody, 1, 0),
		entry(0, 1, -1<<31, 1, 0),
		entry(0, 1, 1<<31-1, 1, 0),
		entry(0, 1, 1, 0, 0), // RSN 0
	} {
		var re RecordError
		if err := l.Record(e); !errors.As(err, &re) || re.Got != e.Det {
			t.Errorf("Record(%v) = %v, want a RecordError naming it", e.Det, err)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("rejected determinants were stored: Len = %d", l.Len())
	}
	_ = l.Record(entry(0, 1, 1, 1, 0))
	for _, p := range []ids.ProcID{4, ids.StorageProc, ids.Nobody, -1 << 31, 1<<31 - 1} {
		if n := l.GCReceiver(p, ^ids.RSN(0)); n != 0 {
			t.Errorf("GCReceiver(%v) dropped %d", p, n)
		}
		if ds := l.ForReceiver(p, 0); len(ds) != 0 {
			t.Errorf("ForReceiver(%v) = %v", p, ds)
		}
	}
	if es := l.AllForReceivers([]ids.ProcID{7, ids.StorageProc, 1, -9}); len(es) != 1 {
		t.Errorf("AllForReceivers with out-of-range members = %v, want p1's one entry", es)
	}
	// Holder bits past the universe are dropped, not stored or counted.
	_ = l.Record(Entry{Det: Determinant{Msg: ids.MsgID{Sender: 2, SSN: 1}, Receiver: 0, RSN: 1}, Holders: bitset.FromSlice([]int{0, 64, 700})})
	if e, _ := l.Lookup(ids.MsgID{Sender: 2, SSN: 1}); !e.Holders.Equal(bitset.FromSlice([]int{0})) {
		t.Errorf("holders = %v, want {0}", e.Holders)
	}
}

func TestPendingExcludesStable(t *testing.T) {
	l := NewLog(Config{N: 4, F: 1})
	if err := l.Record(entry(0, 1, 1, 1, 1)); err != nil { // 1 holder: pending
		t.Fatal(err)
	}
	if err := l.Record(entry(0, 2, 1, 2, 1, 2)); err != nil { // 2 holders: stable at f=1
		t.Fatal(err)
	}
	p := l.Pending()
	if len(p) != 1 || p[0].Det.Msg.SSN != 1 {
		t.Fatalf("Pending = %v, want just ssn 1", p)
	}
}

func TestPendingDeterministicOrder(t *testing.T) {
	l := NewLog(Config{N: 4, F: 3})
	_ = l.Record(entry(2, 5, 1, 1, 1))
	_ = l.Record(entry(0, 9, 1, 2, 1))
	_ = l.Record(entry(0, 3, 1, 3, 1))
	p := l.Pending()
	for i := 1; i < len(p); i++ {
		if !p[i-1].Det.Msg.Less(p[i].Det.Msg) {
			t.Fatalf("Pending not sorted: %v", p)
		}
	}
}

func TestForReceiverOrdersByRSN(t *testing.T) {
	l := NewLog(Config{N: 4, F: 2})
	_ = l.Record(entry(0, 3, 2, 7, 0))
	_ = l.Record(entry(1, 1, 2, 5, 0))
	_ = l.Record(entry(0, 1, 2, 6, 0))
	_ = l.Record(entry(0, 2, 3, 1, 0)) // other receiver
	ds := l.ForReceiver(2, 5)
	if len(ds) != 2 {
		t.Fatalf("ForReceiver returned %d determinants, want 2 (after rsn 5)", len(ds))
	}
	if ds[0].RSN != 6 || ds[1].RSN != 7 {
		t.Fatalf("ForReceiver order wrong: %v", ds)
	}
}

func TestGCReceiver(t *testing.T) {
	l := NewLog(Config{N: 4, F: 2})
	_ = l.Record(entry(0, 1, 2, 1, 0))
	_ = l.Record(entry(0, 2, 2, 2, 0))
	_ = l.Record(entry(0, 3, 3, 2, 0))
	if n := l.GCReceiver(2, 1); n != 1 {
		t.Fatalf("GCReceiver dropped %d, want 1", n)
	}
	if _, ok := l.Lookup(ids.MsgID{Sender: 0, SSN: 1}); ok {
		t.Fatal("GC'd determinant still present")
	}
	if _, ok := l.Lookup(ids.MsgID{Sender: 0, SSN: 2}); !ok {
		t.Fatal("determinant past the watermark must survive")
	}
	if _, ok := l.Lookup(ids.MsgID{Sender: 0, SSN: 3}); !ok {
		t.Fatal("other receiver's determinant must survive")
	}
}

// TestPendingIsStorageBacklogAtFN: in the f = n instance "pending" means
// "not yet held by storage", which is what flushToStorage streams.
func TestPendingIsStorageBacklogAtFN(t *testing.T) {
	l := NewLog(Config{N: 2, F: 2})
	_ = l.Record(entry(0, 1, 1, 1, 0, 1)) // volatile only
	_ = l.Record(entry(0, 2, 1, 2, 0, 2)) // slot 2 == storage for N=2
	p := l.Pending()
	if len(p) != 1 || p[0].Det.Msg.SSN != 1 {
		t.Fatalf("Pending = %v", p)
	}
}

// TestQuickMergeIsIdempotentAndMonotone checks that recording the same
// entries repeatedly, in any order, yields the same log: the leader may
// aggregate overlapping depinfo replies from many processes.
func TestQuickMergeIsIdempotentAndMonotone(t *testing.T) {
	f := func(perm []uint8, holdersRaw []uint8) bool {
		cfg := Config{N: 8, F: 2}
		base := make([]Entry, 8)
		for i := range base {
			h := []int{i % 8}
			if len(holdersRaw) > 0 {
				h = append(h, int(holdersRaw[i%len(holdersRaw)])%8)
			}
			base[i] = entry(ids.ProcID(i%4), ids.SSN(i), ids.ProcID((i+1)%4), ids.RSN(i+1), h...)
		}
		l1 := NewLog(cfg)
		l2 := NewLog(cfg)
		if err := l1.MergeEntries(base); err != nil {
			return false
		}
		// Apply to l2 in a permuted order, twice.
		for round := 0; round < 2; round++ {
			for _, p := range perm {
				if err := l2.Record(base[int(p)%len(base)]); err != nil {
					return false
				}
			}
		}
		if err := l2.MergeEntries(base); err != nil {
			return false
		}
		a, b := l1.All(), l2.All()
		if len(b) > len(a) {
			return false
		}
		// Every entry l2 has must match l1's determinant exactly.
		for i := range b {
			found := false
			for j := range a {
				if a[j].Det == b[i].Det {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllIsDeepCopy(t *testing.T) {
	l := NewLog(Config{N: 4, F: 2})
	_ = l.Record(entry(0, 1, 1, 1, 0))
	snap := l.All()
	snap[0].Holders.Add(3)
	e, _ := l.Lookup(ids.MsgID{Sender: 0, SSN: 1})
	if e.Holders.Contains(3) {
		t.Fatal("All must not alias the log's holder arena")
	}
}

// TestScanOffersViewsOfTheSlab pins what a scan callback is handed (DESIGN
// §5): the entry Lookup would copy, its holder set materialised in the one
// scratch the log owns. The next offer overwrites it — a callback copies
// what it keeps — and nothing else does: not a later change to the entry, not
// its collection, not the reuse of its slot. Fanout-mode transmit is the live
// case: it adds the destination as a holder of every entry it has just
// selected, and the frame must carry the sets as selected. Run for every
// stored form: one word, inline list, overflow set.
func TestScanOffersViewsOfTheSlab(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		holders func(i int) []int
	}{
		{"one word", Config{N: 40, F: 3}, func(i int) []int { return []int{2, 30 + i} }},
		{"inline", Config{N: 70, F: 3}, func(i int) []int { return []int{2, 64 + i} }},
		{"overflow", Config{N: 200, F: 20}, func(i int) []int { return []int{2, 9, 17, 33, 65, 70, 90, 130, 180 + i} }},
	} {
		l := NewLog(tc.cfg)
		for i := 1; i <= 5; i++ {
			if err := l.Record(entry(1, ids.SSN(i), 2, ids.RSN(i), tc.holders(i)...)); err != nil {
				t.Fatal(err)
			}
		}
		if st := l.Stats(); (st.Overflowed == 5) != (tc.name == "overflow") || (st.Inline == 5) != (tc.name == "inline") {
			t.Fatalf("%s: %d inline and %d overflowed entries; the case does not store what it says", tc.name, st.Inline, st.Overflowed)
		}
		var views, copies []Entry
		l.ScanPendingModified(0, func(e Entry) {
			have, ok := l.Lookup(e.Det.Msg) // a copy, from its own words: the view survives it
			if !ok || have.Det != e.Det || !have.Holders.Equal(e.Holders) {
				t.Fatalf("%s: scan offered %v %v, Lookup says %v %v", tc.name, e.Det, e.Holders, have.Det, have.Holders)
			}
			if n := len(views); n > 0 && !views[n-1].Holders.Equal(e.Holders) {
				t.Fatalf("%s: the previous view still reads %v after %v was offered: views are copies again (and allocated)",
					tc.name, views[n-1].Holders, e.Holders)
			}
			views = append(views, e)
			copies = append(copies, e.Clone())
		})
		if len(views) != 5 {
			t.Fatalf("%s: scan offered %d entries, want 5", tc.name, len(views))
		}
		last := copies[4].Holders
		for _, e := range copies {
			l.AddHolder(e.Det.Msg, 9)
			l.AddHolder(e.Det.Msg, 5)
		}
		l.GCReceiver(2, 5)                                                         // frees every slot…
		if err := l.Record(entry(3, 1, 4, 1, 4, tc.cfg.N-1, 11, 12)); err != nil { // …and reuses one
			t.Fatal(err)
		}
		for i, e := range copies {
			if want := bitset.FromSlice(tc.holders(i + 1)); !e.Holders.Equal(want) {
				t.Fatalf("%s: copied entry %d has holders %v after the log changed, want %v", tc.name, i, e.Holders, want)
			}
		}
		if !views[4].Holders.Equal(last) {
			t.Fatalf("%s: the last view reads %v after AddHolder, GC and Record, want %v: only the next offer may overwrite it",
				tc.name, views[4].Holders, last)
		}
	}
}

// TestOverflowSetsAreRecycled: an overflow set is handed back when its entry
// is collected, so a log that keeps spilling and collecting stops growing.
func TestOverflowSetsAreRecycled(t *testing.T) {
	l := NewLog(Config{N: 100, F: 40})
	round := func(ssn int) {
		for i := 0; i < 50; i++ {
			if err := l.Record(entry(1, ids.SSN(ssn+i), 2, ids.RSN(ssn+i), 1, 2, 3, 4, 5, 6, 7, 80+i%20, 99)); err != nil {
				t.Fatal(err)
			}
		}
		if st := l.Stats(); st.Overflowed != 50 || st.Inline != 0 {
			t.Fatalf("%d overflowed and %d inline entries, want 50 and 0", st.Overflowed, st.Inline)
		}
		if e, ok := l.Lookup(ids.MsgID{Sender: 1, SSN: ids.SSN(ssn + 7)}); !ok || !e.Holders.Equal(bitset.FromSlice([]int{1, 2, 3, 4, 5, 6, 7, 87, 99})) {
			t.Fatalf("entry %d reads %v: a recycled set was not cleared", ssn+7, e.Holders)
		}
		if n := l.GCReceiver(2, ^ids.RSN(0)); n != 50 || l.Stats().Overflowed != 0 {
			t.Fatalf("collected %d entries, %d still overflowed", n, l.Stats().Overflowed)
		}
	}
	round(1)
	grown := l.Stats().HolderBytes
	for r := 1; r < 6; r++ {
		round(1 + 100*r)
	}
	if got := l.Stats().HolderBytes; got != grown {
		t.Fatalf("holder storage grew %d → %d B over rounds of the same 50 spills: collected overflow sets are not reused", grown, got)
	}
}

// TestGrowthPastStabilityIsNotNews pins the selection rule (DESIGN §10):
// an entry is news while it is pending, once more when it crosses the
// stability threshold, and never after — later holders are stored, and that
// is all. Two destinations keep a generation each, as fbl.Process.scanGen.
func TestGrowthPastStabilityIsNotNews(t *testing.T) {
	l := NewLog(Config{N: 8, F: 1})
	var settled []ids.MsgID
	l.OnSettled(func(id ids.MsgID) { settled = append(settled, id) })
	a, b := ids.MsgID{Sender: 0, SSN: 1}, ids.MsgID{Sender: 0, SSN: 2}
	for _, e := range []Entry{entry(0, 1, 1, 1, 1), entry(0, 2, 1, 2, 1)} {
		if err := l.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	var gen [2]int
	scan := func(d int) map[ids.MsgID]string {
		got := map[ids.MsgID]string{}
		gen[d] = l.ScanModified(gen[d], func(e Entry) { got[e.Det.Msg] = e.Holders.String() })
		return got
	}
	offered := func(d int, want map[ids.MsgID]string) {
		t.Helper()
		if got := scan(d); len(got) != len(want) || got[a] != want[a] || got[b] != want[b] {
			t.Fatalf("scan for destination %d offered %v, want %v", d, got, want)
		}
	}
	settledOrder := func() (out []ids.MsgID) {
		for i := l.settled.head; i >= 0; i = l.at(i).next {
			out = append(out, l.at(i).det.Msg)
		}
		return out
	}
	offered(0, map[ids.MsgID]string{a: "{1}", b: "{1}"})
	offered(1, map[ids.MsgID]string{a: "{1}", b: "{1}"})

	// The crossing: news once per destination, OnSettled once.
	l.AddHolder(a, 2)
	l.AddHolder(b, 2)
	if len(settled) != 2 || settled[0] != a || settled[1] != b {
		t.Fatalf("OnSettled told %v, want [a b]", settled)
	}
	offered(0, map[ids.MsgID]string{a: "{1,2}", b: "{1,2}"})
	offered(0, nil)

	// Growth past it: stored, and nothing else moves.
	genBefore, late := l.gen, l.Stats().LateUnions
	l.AddHolder(a, 3)
	if err := l.RecordHeld(entry(0, 1, 1, 1, 4), 5); err != nil {
		t.Fatal(err)
	}
	l.AddHolder(a, 3) // no change at all: not even counted
	if e, _ := l.Lookup(a); !e.Holders.Equal(bitset.FromSlice([]int{1, 2, 3, 4, 5})) {
		t.Fatalf("holders of a = %v, want {1, 2, 3, 4, 5}: growth past stability must still be stored", e.Holders)
	}
	if all := l.All(); len(all) != 2 || !all[0].Holders.Contains(5) {
		t.Fatalf("All = %v, want a with its late holders", all)
	}
	if l.gen != genBefore || l.Stats().LateUnions != late+2 {
		t.Fatalf("generation %d → %d, late unions %d → %d; want no new generation and 2 counted",
			genBefore, l.gen, late, l.Stats().LateUnions)
	}
	if got := settledOrder(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("settled list is %v, want [a b]: a must not move to the tail", got)
	}
	if len(settled) != 2 {
		t.Fatalf("OnSettled fired again: %v", settled)
	}
	offered(0, nil)
	l.ScanPendingModified(0, func(e Entry) { t.Fatalf("pending scan offered %v", e.Det) })
	// Destination 1 last scanned before the crossing: it is offered each
	// entry once — with the holders of now — and then nothing.
	offered(1, map[ids.MsgID]string{a: "{1,2,3,4,5}", b: "{1,2}"})
	l.AddHolder(b, 6)
	offered(1, nil)

	// Collected and recorded again, a is a new entry: news to everybody.
	if n := l.GCReceiver(1, 1); n != 1 || len(settled) != 2 {
		t.Fatalf("GCReceiver dropped %d (OnSettled %v), want 1 and no callback for a stable entry", n, settled)
	}
	if err := l.Record(entry(0, 1, 1, 1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	offered(0, map[ids.MsgID]string{a: "{1,2}"})
	offered(1, map[ids.MsgID]string{a: "{1,2}"})
	if got := settledOrder(); len(got) != 2 || got[0] != b || got[1] != a {
		t.Fatalf("settled list is %v, want [b a]", got)
	}
}
