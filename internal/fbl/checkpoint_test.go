package fbl

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"rollrec/internal/ids"
	"rollrec/internal/storage"
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
		appCtx{p}.Send(1, storage.Image{Data: []byte(pl)})
	}
	appCtx{p}.Send(2, storage.Image{Data: []byte("x")})
	appCtx{p}.Send(2, storage.Image{})
	p.pruneSendLog(1, 2)
	p.pruneSendLog(2, 9)
	appCtx{p}.Send(2, storage.Image{Data: []byte("after-the-prune")})
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
	if got, want := sendLogSSNs(q, 1), [][2]uint64{{3, 3}, {4, 4}, {5, 5}}; !equalPairs(got, want) {
		t.Fatalf("restored send log to p1 = %v, want %v", got, want)
	}
	if got, want := sendLogSSNs(q, 2), [][2]uint64{{3, 8}}; !equalPairs(got, want) {
		t.Fatalf("restored send log to p2 = %v, want %v", got, want)
	}
}

// sendLogSSNs returns the (dseq, ssn) pairs p logged for destination q, in
// dseq order.
func sendLogSSNs(p *Process, q ids.ProcID) [][2]uint64 {
	log := p.sendLog[q]
	out := make([][2]uint64, 0, log.Len())
	for i, rec := range log.Live() {
		out = append(out, [2]uint64{log.Base() + uint64(i), uint64(rec.SSN)})
	}
	return out
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
			t.Errorf("decode accepted %s: dseqs %v with the last dseq assigned 5", tc.name, tc.dseqs)
		}
	}
}

// TestPruneSendLogWatermarks: a checkpoint watermark prunes the send log to
// its sender and nothing else, a watermark for something that is not a
// process is ignored, and the next send after a full prune starts a new
// window wherever the dseq counter says (the window's own edge cases are
// channel.TestWindowEdges).
func TestPruneSendLogWatermarks(t *testing.T) {
	p, _ := bootProc(t, 0, 3, 2)
	for i := 0; i < 6; i++ {
		appCtx{p}.Send(1, storage.Image{Data: []byte{byte(i)}})
		appCtx{p}.Send(2, storage.Image{Data: []byte{byte(i)}})
	}
	expect := func(step string, q ids.ProcID, want ...uint64) {
		t.Helper()
		got := sendLogSSNs(p, q)
		ok := len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i][0] == want[i]
		}
		if !ok {
			t.Fatalf("%s: send log to p%d holds %v, want dseqs %v", step, q, got, want)
		}
	}
	p.pruneSendLog(1, 4)
	expect("watermark 4", 1, 5, 6)
	expect("another destination's log", 2, 1, 2, 3, 4, 5, 6)
	p.pruneSendLog(ids.StorageProc, 9)
	p.pruneSendLog(7, 9) // not a process: ignored
	expect("watermarks for nobody", 1, 5, 6)
	p.pruneSendLog(1, ^uint64(0)) // a rolled-back sender hears of a checkpoint ahead of it
	expect("watermark beyond the window", 1)
	appCtx{p}.Send(1, storage.Image{Data: []byte("again")})
	expect("send after a full prune", 1, 7)
}

// TestSendLogNeedsNoSortOrMap: a checkpoint of a 10 000-record send log
// allocates its image and nothing per record, and restores to the same
// window (the window's own 0-alloc gate is channel.TestWindowNeedsNoSortOrMap).
func TestSendLogNeedsNoSortOrMap(t *testing.T) {
	const records = 10_000
	p, _ := bootProc(t, 0, 3, 2)
	payload := []byte("payload")
	for d := 0; d < records+500; d++ {
		appCtx{p}.Send(1, storage.Image{Data: payload})
	}
	p.pruneSendLog(1, 500)
	sum := 0
	if got := testing.AllocsPerRun(10, func() { sum += len(p.encodeCheckpoint().Data) }); got > 2 {
		t.Errorf("checkpoint of a %d-record send log: %v allocs, want the image (and its writer) only", records, got)
	}
	q, _ := bootProc(t, 0, 3, 2)
	if err := q.decodeCheckpoint(p.encodeCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if w := q.sendLog[1]; w.Len() != records || w.Base() != 501 {
		t.Fatalf("restored window is [%d, +%d), want [501, +%d)", w.Base(), w.Len(), records)
	}
	_ = sum
}

// paddedPayloads are logged payloads padded by each of seedPads.
func paddedPayloads() []storage.Image {
	var out []storage.Image
	for i, pad := range seedPads {
		out = append(out, storage.Image{Data: []byte{byte(i), 'p'}, Pad: pad})
	}
	return out
}

// materialised is payloads with their zeros written into their data.
func materialised(payloads []storage.Image) []storage.Image {
	out := make([]storage.Image, len(payloads))
	for i, p := range payloads {
		out[i] = storage.Image{Data: append(append([]byte(nil), p.Data...), make([]byte, p.Pad)...)}
	}
	return out
}

// TestCheckpointRestoresPaddedPayloads: a checkpoint of an 8 MiB process
// image whose send log holds padded payloads restores each record as it was
// logged, data and pad, and is as large as the checkpoint of the same log
// with every pad written out as zeros.
func TestCheckpointRestoresPaddedPayloads(t *testing.T) {
	const statePad = 8 << 20
	image := func(payloads []storage.Image) storage.Image {
		p := blobProc(statePad)
		for _, pl := range payloads {
			appCtx{p}.Send(1, pl)
		}
		return p.encodeCheckpoint()
	}
	payloads := paddedPayloads()
	img := image(payloads)
	if dense := image(materialised(payloads)); img.Size() != dense.Size() || dense.Pad != statePad {
		t.Fatalf("image is %d B; with its payloads' zeros written out it is %d B", img.Size(), dense.Size())
	}
	q := blobProc(statePad)
	if err := q.decodeCheckpoint(img); err != nil {
		t.Fatal(err)
	}
	got := q.sendLog[1].Live()
	if len(got) != len(payloads) {
		t.Fatalf("restored %d records, logged %d", len(got), len(payloads))
	}
	for i, rec := range got {
		if !bytes.Equal(rec.Payload.Data, payloads[i].Data) || rec.Payload.Pad != payloads[i].Pad {
			t.Fatalf("record %d restored as %x + %d, logged as %x + %d",
				i, rec.Payload.Data, rec.Payload.Pad, payloads[i].Data, payloads[i].Pad)
		}
	}
}
