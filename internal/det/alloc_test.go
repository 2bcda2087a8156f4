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

// TestHotPathAllocs is the runtime face of the //rollvet:hotpath
// annotations in this package: recording into a warm slab, adding a holder,
// reading the pending set and a selection scan — which offers views into
// the slab, not copies — allocate nothing.
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

// TestSlabGrowsInChunksAndNeverCopies pins the slab's growth past its first
// chunk, for a one-word log and a wide one: recording K new entries
// allocates two objects per chunk of 256 (the slots, their holders) plus a
// handful for the id table's doublings and the chunk directories', in bytes
// what the chunks and the table hold — a slab that doubled would allocate
// (and copy) about as much again — and no slot recorded before moves.
func TestSlabGrowsInChunksAndNeverCopies(t *testing.T) {
	for _, cfg := range []Config{{N: 32, F: 1}, {N: 256, F: 2}} {
		const first, k = chunkSize + 10, 16 * chunkSize
		l := pendingLog(cfg, first)
		before := make([]*slot, first)
		for i := range before {
			before[i] = l.at(int32(i))
		}
		next := first
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for ; next < first+k; next++ {
			r := ids.ProcID(next % cfg.N)
			if err := l.RecordHeld(Entry{Det: Determinant{Msg: ids.MsgID{Sender: r, SSN: ids.SSN(next + 1)}, Receiver: r, RSN: ids.RSN(next + 1)}}, r); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		st := l.Stats()
		if st.Entries != first+k || st.SlabCap != first+k {
			t.Fatalf("%+v: %d entries in %d slots, want %d", cfg, st.Entries, st.SlabCap, first+k)
		}
		const slack = 16 // table doublings (5 here), directory growth, ReadMemStats itself
		if objs, most := m1.Mallocs-m0.Mallocs, uint64(2*(k/chunkSize)+slack); objs > most {
			t.Errorf("%+v: recording %d entries past the first chunk allocated %d objects, want at most %d", cfg, k, objs, most)
		}
		perSlot := int(unsafe.Sizeof(slot{})) + st.HolderBytes/chunkedCap(l.slots, 1)
		if got, most := m1.TotalAlloc-m0.TotalAlloc, uint64(k*perSlot+2*4*len(l.table)+4<<10); got > most {
			t.Errorf("%+v: recording %d entries allocated %d B, want at most %d (%d B a slot, the table, 4 KB of slack): something is copying the slab",
				cfg, k, got, most, perSlot)
		}
		for i, s := range before {
			if l.at(int32(i)) != s {
				t.Fatalf("%+v: slot %d moved when the slab grew", cfg, i)
			}
		}
	}
}
