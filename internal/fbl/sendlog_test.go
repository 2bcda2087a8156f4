package fbl

import (
	"encoding/binary"
	"encoding/hex"
	"testing"

	"rollrec/internal/ids"
)

// goldenCheckpointState drives a process into the state the golden image
// pins: deliveries, a send log to p1 with a pruned prefix, one to p2 pruned
// empty and appended to again, and an output counter.
func goldenCheckpointState() *Process {
	p := blobProc(4 << 10)
	p.app.(*blobApp).state = []byte("app-state")
	p.Deliver(appFrame(1, 1, 7, 1))
	p.Deliver(appFrame(2, 1, 9, 1))
	for _, pl := range []string{"a", "bb", "ccc", "dddd", "eeeee"} {
		appCtx{p}.Send(1, []byte(pl))
	}
	appCtx{p}.Send(2, []byte("x"))
	appCtx{p}.Send(2, nil)
	p.pruneSendLog(1, 2)
	p.pruneSendLog(2, 9)
	appCtx{p}.Send(2, []byte("after-the-prune"))
	p.outSeq = 3
	return p
}

// goldenCheckpoint is encodeCheckpoint's image of goldenCheckpointState as
// the map-based send log wrote it (PR 21's tree): the window writes the same
// bytes, so images written by either side restore under the other.
const goldenCheckpoint = "010100000000000000000000000108000000000000000200000000000000000000000000000000000000000000000100000005000000000000000100000000000000010000000300000000000000010000000000000001000000090000006170702d7374617465000000000300000003000000000000000300000000000000030000006363630400000000000000040000000000000004000000646464640500000000000000050000000000000005000000656565656501000000030000000000000008000000000000000f00000061667465722d7468652d7072756e65001000000300000000000000"

func TestCheckpointGoldenImage(t *testing.T) {
	img := goldenCheckpointState().encodeCheckpoint()
	if got := hex.EncodeToString(img.Data); got != goldenCheckpoint || img.Pad != 4<<10 {
		t.Fatalf("checkpoint image moved:\n got  %s + %d\n want %s + %d", got, img.Pad, goldenCheckpoint, 4<<10)
	}
	q := blobProc(4 << 10)
	if err := q.decodeCheckpoint(img); err != nil {
		t.Fatal(err)
	}
	if got, want := q.SendLogSSNs(1), [][2]uint64{{3, 3}, {4, 4}, {5, 5}}; !equalPairs(got, want) {
		t.Fatalf("restored send log to p1 = %v, want %v", got, want)
	}
	if got, want := q.SendLogSSNs(2), [][2]uint64{{3, 8}}; !equalPairs(got, want) {
		t.Fatalf("restored send log to p2 = %v, want %v", got, want)
	}
}

func equalPairs(a, b [][2]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCheckpointRejectsBrokenWindow: the send log is a contiguous window
// ending at the last dseq assigned, and decode accepts nothing else.
func TestCheckpointRejectsBrokenWindow(t *testing.T) {
	img := goldenCheckpointState().encodeCheckpoint()
	// The first record of the log to p1 (dseq 3) follows the fixed-size
	// header, the app snapshot, p0's empty log and p1's count.
	at := 1 + 4 + 8 + 1 + 8 + 8 + 20*3 + 4 + len("app-state") + 4 + 4
	if got := binary.LittleEndian.Uint64(img.Data[at:]); got != 3 {
		t.Fatalf("offset %d holds %d, not the first dseq of the log to p1", at, got)
	}
	offsets := [3]int{at, at + 8 + 8 + 4 + len("ccc"), at + 2*(8+8+4) + len("ccc") + len("dddd")}
	for _, tc := range []struct {
		name  string
		dseqs [3]uint64
	}{
		{"a gap", [3]uint64{2, 4, 5}},
		{"a repeated dseq", [3]uint64{4, 4, 5}},
		{"descending dseqs", [3]uint64{5, 4, 3}},
		{"a window ending short of the last dseq assigned", [3]uint64{1, 2, 3}},
		{"a window ending beyond it", [3]uint64{4, 5, 6}},
	} {
		bad := img
		bad.Data = append([]byte(nil), img.Data...)
		for i, off := range offsets {
			binary.LittleEndian.PutUint64(bad.Data[off:], tc.dseqs[i])
		}
		if err := blobProc(4 << 10).decodeCheckpoint(bad); err == nil {
			t.Errorf("decode accepted %s: dseqs %v with dseqOut 5", tc.name, tc.dseqs)
		}
	}
}

// TestPruneSendLogWatermarks: a watermark below the window is a no-op, one
// at or beyond its last dseq empties it, and the next send starts a new
// window wherever dseqOut says.
func TestPruneSendLogWatermarks(t *testing.T) {
	p, _ := bootProc(t, 0, 3, 2)
	for i := 0; i < 6; i++ {
		appCtx{p}.Send(1, []byte{byte(i)})
	}
	dseqs := func() (out []uint64) {
		for _, pair := range p.SendLogSSNs(1) {
			out = append(out, pair[0])
		}
		return out
	}
	expect := func(step string, want ...uint64) {
		t.Helper()
		got := dseqs()
		if len(got) != len(want) {
			t.Fatalf("%s: send log holds dseqs %v, want %v", step, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: send log holds dseqs %v, want %v", step, got, want)
			}
		}
	}
	p.pruneSendLog(1, 0)
	expect("watermark 0", 1, 2, 3, 4, 5, 6)
	p.pruneSendLog(1, 4)
	expect("watermark 4", 5, 6)
	p.pruneSendLog(1, 2) // below base
	expect("watermark below the window", 5, 6)
	p.pruneSendLog(ids.StorageProc, 9)
	p.pruneSendLog(7, 9) // not a process: ignored
	expect("watermarks for nobody", 5, 6)
	p.pruneSendLog(1, ^uint64(0)) // beyond the last dseq: a rolled-back sender hears of a checkpoint ahead of it
	expect("watermark beyond the window")
	p.pruneSendLog(1, 3)
	expect("watermark on an empty window")
	appCtx{p}.Send(1, []byte("again"))
	expect("send after a full prune", 7)
	if recs, first := p.sendLog[1].after(0); first != 7 || len(recs) != 1 || string(recs[0].payload) != "again" {
		t.Fatalf("after(0) = %d, %+v", first, recs)
	}
}

// TestSendLogNeedsNoSortOrMap: with 10 000 records logged, pruning a prefix,
// appending behind it, walking it for a replay request and sizing a
// checkpoint allocate nothing — there is no map to walk and no key slice to
// sort — and a checkpoint allocates its image and nothing per record.
func TestSendLogNeedsNoSortOrMap(t *testing.T) {
	const records = 10_000
	p, _ := bootProc(t, 0, 3, 2)
	w := p.sendLogFor(1)
	payload := []byte("payload")
	for d := uint64(1); d <= records; d++ {
		w.append(d, logRec{ssn: ids.SSN(d), payload: payload})
	}
	p.dseqOut[1] = records
	next, sum := uint64(records), 0
	if got := testing.AllocsPerRun(100, func() {
		// A steady window: ten in, ten out, and a replay walk of the tail.
		for i := 0; i < 10; i++ {
			next++
			w.append(next, logRec{ssn: ids.SSN(next), payload: payload})
		}
		p.pruneSendLog(1, next-records)
		recs, first := w.after(next - 50)
		sum += len(recs) + int(first)
	}); got != 0 {
		t.Errorf("append+prune+walk on a %d-record window: %v allocs, want 0", records, got)
	}
	if w.len() != records || w.base != next-records+1 {
		t.Fatalf("window is [%d, +%d), want [%d, +%d)", w.base, w.len(), next-records+1, records)
	}
	p.dseqOut[1] = next
	if got := testing.AllocsPerRun(10, func() { sum += len(p.encodeCheckpoint().Data) }); got > 2 {
		t.Errorf("checkpoint of a %d-record send log: %v allocs, want the image (and its writer) only", records, got)
	}
	q, _ := bootProc(t, 0, 3, 2)
	if err := q.decodeCheckpoint(p.encodeCheckpoint()); err != nil || q.sendLog[1].len() != records || q.sendLog[1].base != w.base {
		t.Fatalf("restored window is [%d, +%d) (err %v), want [%d, +%d)", q.sendLog[1].base, q.sendLog[1].len(), err, w.base, records)
	}
	_ = sum
}
