package det

import (
	"runtime"
	"testing"
	"unsafe"

	"rollrec/internal/bitset"
	"rollrec/internal/ids"
)

// pendingLog returns a log of n pending entries spread over the receivers.
func pendingLog(cfg Config, n int) *Log {
	l := NewLog(cfg)
	for i := 0; i < n; i++ {
		r := ids.ProcID(i % cfg.N)
		_ = l.Record(Entry{
			Det:     Determinant{Msg: ids.MsgID{Sender: ids.ProcID((i + 1) % cfg.N), SSN: ids.SSN(i + 1)}, Receiver: r, RSN: ids.RSN(i + 1)},
			Holders: bitset.FromSlice([]int{int(r)}),
		})
	}
	return l
}

// TestHotPathAllocs: the log's per-event operations — recording into a warm
// slab, adding a holder, reading the pending set and a selection scan, which
// offers views into the slab, not copies — allocate nothing.
func TestHotPathAllocs(t *testing.T) {
	cfg := Config{N: 32, F: 1}
	const live = 512

	// A warm slab: fill, collect everything, so every Record below reuses a
	// freed slot and the table is already sized.
	l := pendingLog(cfg, live)
	for p := 0; p < cfg.N; p++ {
		l.GCReceiver(ids.ProcID(p), ^ids.RSN(0))
	}
	next := 0
	e := Entry{Holders: bitset.FromSlice([]int{3})}
	if got := testing.AllocsPerRun(live/2, func() {
		next++
		e.Det = Determinant{Msg: ids.MsgID{Sender: 5, SSN: ids.SSN(next)}, Receiver: 3, RSN: ids.RSN(next)}
		if err := l.RecordHeld(e, 7); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Record of a new entry on a warm slab: %v allocs, want 0", got)
	}
	if st := l.Stats(); st.SlabCap != live {
		t.Fatalf("slab grew to %d slots; the gate must run on recycled ones (cap %d)", st.SlabCap, live)
	}

	l = pendingLog(Config{N: 32, F: 3}, live)
	next = 0
	if got := testing.AllocsPerRun(live, func() {
		next++
		l.AddHolder(ids.MsgID{Sender: ids.ProcID(next % 32), SSN: ids.SSN(next)}, 9)
	}); got != 0 {
		t.Errorf("AddHolder: %v allocs, want 0", got)
	}

	sink := 0
	if got := testing.AllocsPerRun(20, func() {
		sink += l.PendingCount()
		l.PendingIDs(func(ids.MsgID) { sink++ })
	}); got != 0 {
		t.Errorf("PendingCount+PendingIDs: %v allocs, want 0", got)
	}

	offered := 0
	count := func(Entry) { offered++ }
	if got := testing.AllocsPerRun(20, func() { l.ScanPendingModified(0, count) }); got != 0 || offered == 0 {
		t.Errorf("scan of %d pending entries: %v allocs (%d offered), want 0: entries are views", l.PendingCount(), got, offered)
	}
	gen := l.ScanModified(0, count)
	if got := testing.AllocsPerRun(20, func() { l.ScanModified(gen, count) }); got != 0 {
		t.Errorf("scan with nothing modified: %v allocs, want 0", got)
	}
	_ = sink
}

// TestSlabGrowsInChunksAndNeverCopies pins the slab's growth from an empty
// log, for a one-word log and a wide one: recording K entries allocates two
// objects per chunk of 64 (the slots, their holders) plus a handful for the
// id table's doublings and the chunk directories', in bytes what the chunks
// and the table hold — a chunk that doubled would allocate (and copy) about
// as much again — and no slot or holder set moves, from the first entry on.
func TestSlabGrowsInChunksAndNeverCopies(t *testing.T) {
	for _, cfg := range []Config{{N: 32, F: 1}, {N: 256, F: 2}} {
		const k = 16 * chunkSize
		l := NewLog(cfg)
		slots, holders := make([]*slot, k), make([]unsafe.Pointer, k)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for next := range k {
			r := ids.ProcID(next % cfg.N)
			if err := l.RecordHeld(Entry{Det: Determinant{Msg: ids.MsgID{Sender: r, SSN: ids.SSN(next + 1)}, Receiver: r, RSN: ids.RSN(next + 1)}}, r); err != nil {
				t.Fatal(err)
			}
			slots[next], holders[next] = l.at(int32(next)), l.holderAt(int32(next))
		}
		runtime.ReadMemStats(&m1)
		st := l.Stats()
		if st.Entries != k || st.SlabCap != k {
			t.Fatalf("%+v: %d entries in %d slots, want %d", cfg, st.Entries, st.SlabCap, k)
		}
		const slack = 18 // table doublings (7 here), directory growth (5 each), ReadMemStats itself
		if objs, most := m1.Mallocs-m0.Mallocs, uint64(2*(k/chunkSize)+slack); objs > most {
			t.Errorf("%+v: recording %d entries allocated %d objects, want at most %d", cfg, k, objs, most)
		}
		perSlot := int(unsafe.Sizeof(slot{})) + st.HolderBytes/(len(l.slots)*chunkSize)
		if got, most := m1.TotalAlloc-m0.TotalAlloc, uint64(k*perSlot+2*4*len(l.table)+4<<10); got > most {
			t.Errorf("%+v: recording %d entries allocated %d B, want at most %d (%d B a slot, the table, 4 KB of slack): something is copying the slab",
				cfg, k, got, most, perSlot)
		}
		for i := range slots {
			if l.at(int32(i)) != slots[i] || l.holderAt(int32(i)) != holders[i] {
				t.Fatalf("%+v: slot %d or its holders moved when the slab grew", cfg, i)
			}
		}
	}
}

// holderAt is where slot i's holder set is stored.
func (l *Log) holderAt(i int32) unsafe.Pointer {
	if l.wide {
		return unsafe.Pointer(l.sparseAt(i))
	}
	return unsafe.Pointer(&l.word[i>>chunkBits][i&chunkMask])
}

// TestSmallLogAllocs: a log that stays small — an explorer branch's, ten
// entries — costs one chunk of slots and one of holders, each allocated
// once, beside its directories and the id table's first 16 buckets.
func TestSmallLogAllocs(t *testing.T) {
	for _, cfg := range []Config{{N: 4, F: 1}, {N: 64, F: 1}} {
		l := NewLog(cfg)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range 10 {
			r := ids.ProcID(i % cfg.N)
			if err := l.RecordHeld(Entry{Det: Determinant{Msg: ids.MsgID{Sender: r, SSN: ids.SSN(i + 1)}, Receiver: r, RSN: ids.RSN(i + 1)}}, r); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		st := l.Stats()
		if st.SlabBytes != chunkSize*int(unsafe.Sizeof(slot{})) || st.HolderBytes > chunkSize*16 {
			t.Errorf("%+v: 10 entries hold %d B of slots and %d B of holders, want one chunk of each", cfg, st.SlabBytes, st.HolderBytes)
		}
		// Two chunks, their two directories, the table.
		if objs := m1.Mallocs - m0.Mallocs; objs > 5 {
			t.Errorf("%+v: recording 10 entries allocated %d objects, want at most 5: the first chunk is allocated whole", cfg, objs)
		}
		if got, most := m1.TotalAlloc-m0.TotalAlloc, uint64(st.SlabBytes+st.HolderBytes+st.TableBytes+256); got > most {
			t.Errorf("%+v: recording 10 entries allocated %d B, want at most %d (one chunk of slots and holders, the table)", cfg, got, most)
		}
	}
}

// TestViewAllocs: a view is a walk over the log in place — building one
// allocates nothing, whatever it names — and reading it offers views of the
// slab.
func TestViewAllocs(t *testing.T) {
	cfg := Config{N: 32, F: 3}
	l := pendingLog(cfg, 512)
	l.GCReceiver(5, ^ids.RSN(0)) // p5 delivered nothing the log still holds
	scoped, nobody := []ids.ProcID{3, 1}, []ids.ProcID{5}
	for _, tc := range []struct {
		name  string
		build func() View
	}{
		{"whole", func() View { return l.View(nil) }},
		{"scoped", func() View { return l.View(scoped) }},
		{"scoped to a receiver with no entries", func() View { return l.View(nobody) }},
		{"pending", l.PendingView},
	} {
		if got := testing.AllocsPerRun(20, func() { tc.build() }); got != 0 {
			t.Errorf("%s view of a %d-entry log: %v allocs, want 0", tc.name, l.Len(), got)
		}
	}
	v, n := l.View(nil), 0
	if got := testing.AllocsPerRun(20, func() { v.Each(func(Entry) { n++ }) }); got != 0 || n == 0 {
		t.Errorf("Each over %d entries: %v allocs, want 0", v.Len(), got)
	}
}

// TestSlotSize pins the slot at 36 bytes: the determinant is held flat in
// 16-bit process ids and 32-bit sequence numbers, beside two 32-bit
// generations and four 32-bit links, with no padding. A slot that grew
// would cost every log 4 bytes an entry or more.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 36 {
		t.Errorf("a slot is %d bytes, want 36", got)
	}
}

// TestEntryFootprint: a log of 4 096 entries, narrow or wide, spends at most
// 44 bytes an entry on slots and id table together — 36 for the slot, at
// most 8 for the buckets, of which there are never more than twice the
// entries.
func TestEntryFootprint(t *testing.T) {
	for _, cfg := range []Config{{N: 32, F: 1}, {N: 1024, F: 2}} {
		st := pendingLog(cfg, 4096).Stats()
		if st.Entries != 4096 {
			t.Fatalf("%+v: %d entries, want 4096", cfg, st.Entries)
		}
		if per := float64(st.SlabBytes+st.TableBytes) / float64(st.Entries); per > 44 {
			t.Errorf("%+v: slab %d B + table %d B = %.1f B an entry, want at most 44", cfg, st.SlabBytes, st.TableBytes, per)
		}
	}
}
