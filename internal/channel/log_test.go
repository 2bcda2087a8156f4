package channel

import (
	"testing"
	"unsafe"

	"rollrec/internal/ids"
	"rollrec/internal/storage"
)

func dseqs(l Log, to ids.ProcID) (out []uint64) {
	w := l[to]
	for i := range w.Live() {
		out = append(out, w.Base()+uint64(i))
	}
	return out
}

// TestWindowEdges: a watermark below the window is a no-op, one at or beyond
// its last dseq empties it, pruning an empty window does nothing, and the
// next append starts a new window wherever it is told to.
func TestWindowEdges(t *testing.T) {
	l := make(Log, 3)
	for d := uint64(1); d <= 6; d++ {
		l.Append(1, d, Rec{SSN: ids.SSN(d), Payload: storage.Image{Data: []byte{byte(d)}}})
	}
	expect := func(step string, want ...uint64) {
		t.Helper()
		got := dseqs(l, 1)
		ok := len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i] == want[i]
		}
		if !ok {
			t.Fatalf("%s: window holds dseqs %v, want %v", step, got, want)
		}
	}
	l.Prune(1, 0)
	expect("watermark 0", 1, 2, 3, 4, 5, 6)
	if recs, first := l.After(1, 4); first != 5 || len(recs) != 2 || recs[0].SSN != 5 {
		t.Fatalf("After(4) = %d, %+v", first, recs)
	}
	l.Prune(1, 4)
	expect("watermark 4", 5, 6)
	l.Prune(1, 2)
	expect("watermark below the window", 5, 6)
	if recs, first := l.After(1, 0); first != 5 || len(recs) != 2 {
		t.Fatalf("After(0) below the window = %d, %+v", first, recs)
	}
	if recs, _ := l.After(1, 6); len(recs) != 0 {
		t.Fatalf("After(last) = %+v, want nothing", recs)
	}
	l.Prune(1, ^uint64(0)) // a rolled-back sender hears of a watermark ahead of it
	expect("watermark beyond the window")
	l.Prune(1, 3)
	expect("watermark on an empty window")
	l.Append(1, 7, Rec{SSN: 7, Payload: storage.Image{Data: []byte("again")}})
	expect("append after a full prune", 7)
	if recs, first := l.After(1, 0); first != 7 || len(recs) != 1 || string(recs[0].Payload.Data) != "again" {
		t.Fatalf("After(0) = %d, %+v", first, recs)
	}
	if l[0] != nil || l[2] != nil {
		t.Fatal("a window was allocated for a destination never sent to")
	}
	if recs, first := l.After(2, 0); recs != nil || first != 0 {
		t.Fatalf("After on a destination never sent to = %d, %+v", first, recs)
	}
	if n, _ := l.Size(); n != 1 {
		t.Fatalf("Size() = %d records, want 1", n)
	}
	w := l[1]
	l.Reset(3)
	if n, b := l.Size(); n != 0 || b != cap(w.recs)*int(unsafe.Sizeof(Rec{})) || l[1] != w {
		t.Fatalf("after Reset, Size() = %d records, %d bytes: want none, in the window's kept array", n, b)
	}
}

// TestWindowRejectsAGap: the window is contiguous by construction; an append
// that is not the next dseq is a bug in the caller.
func TestWindowRejectsAGap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("appending dseq 3 after dseq 1 did not panic")
		}
	}()
	l := make(Log, 2)
	l.Append(1, 1, Rec{})
	l.Append(1, 3, Rec{})
}

// TestWindowSteadyStateAllocs: with 10 000 records logged, pruning a prefix,
// appending behind it and walking it for a retransmission request allocate
// nothing — there is no map to walk and no key slice to sort.
func TestWindowSteadyStateAllocs(t *testing.T) {
	const records = 10_000
	l := make(Log, 3)
	payload := storage.Image{Data: []byte("payload"), Pad: 256}
	for d := uint64(1); d <= records; d++ {
		l.Append(1, d, Rec{SSN: ids.SSN(d), Payload: payload})
	}
	next, sum := uint64(records), 0
	if got := testing.AllocsPerRun(100, func() {
		// A steady window: ten in, ten out, and a replay walk of the tail.
		for i := 0; i < 10; i++ {
			next++
			l.Append(1, next, Rec{SSN: ids.SSN(next), Payload: payload})
		}
		l.Prune(1, next-records)
		recs, first := l.After(1, next-50)
		sum += len(recs) + int(first)
	}); got != 0 {
		t.Errorf("append+prune+walk on a %d-record window: %v allocs, want 0", records, got)
	}
	if w := l[1]; w.Len() != records || w.Base() != next-records+1 {
		t.Fatalf("window is [%d, +%d), want [%d, +%d)", w.Base(), w.Len(), next-records+1, records)
	}
	_ = sum
}

// TestSizeCountsStoredBytes: a logged payload occupies its Data; its padding
// is a count, and the log holds none of it.
func TestSizeCountsStoredBytes(t *testing.T) {
	l := make(Log, 2)
	l.Append(1, 1, Rec{SSN: 1, Payload: storage.Image{Data: make([]byte, 16), Pad: 256}})
	l.Append(1, 2, Rec{SSN: 2, Payload: storage.Image{Data: make([]byte, 16)}})
	recs, bytes := l.Size()
	if arrays := cap(l[1].recs) * int(unsafe.Sizeof(Rec{})); recs != 2 || bytes != arrays+32 {
		t.Fatalf("Size = %d records, %d B; want 2 records, %d B of array and 32 B of data", recs, bytes, arrays)
	}
}
