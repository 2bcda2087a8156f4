package wire

import (
	"errors"
	"testing"

	"rollrec/internal/det"
	"rollrec/internal/ids"
)

// holderFrame assembles a KindApp frame whose single determinant entry
// carries hand-written holder-set bytes, for exercising the decoder's
// corrupted-encoding guards.
func holderFrame(holders func(w *Writer)) []byte {
	w := NewWriter(64)
	w.U8(2)        // codec version
	w.U8(1)        // KindApp
	w.I32(0)       // from
	w.I32(1)       // to
	w.U32(0)       // inc
	w.U16(hasDets) // presence
	w.U32(1)       // one entry
	w.I32(0)       // det sender
	w.U64(7)       // det ssn
	w.I32(1)       // det receiver
	w.U64(9)       // det rsn
	holders(w)
	return w.Frame()
}

// TestDecodeHolderAmplificationGuards pins two fuzzer findings: a tiny
// frame must not be able to demand work or memory wildly out of proportion
// to its size. Overlapping run-length runs (which the encoder never emits)
// could expand ~30 bytes into millions of set inserts, and a dense-u16
// word count was allocated before checking the words were present.
func TestDecodeHolderAmplificationGuards(t *testing.T) {
	overlapping := holderFrame(func(w *Writer) {
		w.U8(holderTagRuns)
		w.U16(2)
		w.U16(0)
		w.U16(0xFFFF) // run [0,65535]
		w.U16(0)
		w.U16(0xFFFF) // the same run again: 131072 > 65536 elements
	})
	if _, err := Decode(overlapping); !errors.Is(err, ErrBadHolders) {
		t.Fatalf("overlapping runs decoded with err=%v, want ErrBadHolders", err)
	}

	truncatedDense := holderFrame(func(w *Writer) {
		w.U8(holderTagDenseU16)
		w.U16(0xFFFF) // claims 65535 words (512 KiB) with none present
	})
	if _, err := Decode(truncatedDense); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated dense-u16 decoded with err=%v, want ErrTruncated", err)
	}
}

// fuzzSeedFrames is FuzzDecodeFrame's seed corpus.
func fuzzSeedFrames() [][]byte {
	var frames [][]byte
	for _, e := range sampleEnvelopes() {
		frame := Encode(e)
		frames = append(frames, frame, frame[:len(frame)/2])
	}
	return append(frames,
		[]byte{},
		[]byte{2},
		[]byte{2, 1},
		[]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
}

// TestSeedCorpusDetsRecordWithoutPanic feeds every determinant the decoder
// accepts from the fuzz seed corpus — plus the same entries with receivers
// and RSNs no encoder would emit — to determinant logs narrower and wider
// than the frames assume. The log indexes per-receiver chains and a
// fixed-stride holder arena by what these fields say, so out-of-range
// values must come back as errors (or be ignored), never as panics.
func TestSeedCorpusDetsRecordWithoutPanic(t *testing.T) {
	recorded := 0
	for _, frame := range fuzzSeedFrames() {
		e, err := Decode(frame)
		if err != nil {
			continue
		}
		for _, n := range []int{1, 3, 64, 200} {
			l := det.NewLog(det.Config{N: n, F: 1})
			for _, en := range e.Dets {
				for _, recv := range []ids.ProcID{en.Det.Receiver, ids.StorageProc, ids.Nobody, ids.ProcID(n), -1 << 31, 1<<31 - 1} {
					for _, rsn := range []ids.RSN{en.Det.RSN, 0} {
						mut := en
						mut.Det.Receiver, mut.Det.RSN = recv, rsn
						if l.RecordHeld(mut, e.From) == nil {
							recorded++
						}
						l.AddHolder(mut.Det.Msg, e.To)
						l.ForReceiver(recv, 0)
						l.AllForReceivers(e.Members)
					}
				}
			}
			l.All()
			for _, en := range e.Dets {
				l.GCReceiver(en.Det.Receiver, en.Det.RSN)
			}
		}
	}
	if recorded == 0 {
		t.Fatal("the seed corpus recorded nothing: the test is not exercising Record")
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder. Four
// properties must hold for every input:
//
//  1. Decode never panics — corrupted frames fail with an error.
//  2. Any envelope Decode accepts is re-encodable (EncodeChecked must not
//     reject a frame the decoder considered well-formed), and Size agrees
//     with the encoder byte-for-byte.
//  3. Re-encoding then decoding is semantically lossless. Byte-identity is
//     NOT required: Decode accepts presence bits the encoder would
//     normalize away, but the envelope's meaning must survive the round
//     trip.
//  4. One long-lived Decoder, fed every input of the run, agrees with a
//     fresh decode each time — same envelope or same rejection — and a
//     corrupted count does not make it grow its buffers past what the
//     frame's own bytes could hold.
//
// The seed corpus covers every envelope kind via the codec tests' sample
// envelopes, whole and cut in half, plus a few degenerate frames (one with
// an old version byte).
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}

	var (
		shared Decoder
		rx     Envelope
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		detsBefore, wordsBefore := cap(shared.dets), cap(shared.words)
		errShared := shared.Decode(&rx, data)
		if (err == nil) != (errShared == nil) || (err != nil && err.Error() != errShared.Error()) {
			t.Fatalf("a reused Decoder says %v, a fresh one %v", errShared, err)
		}
		// What one frame may add: entries it has the bytes for (25 each at
		// least) past the 4096 a bare count may reserve, and a holder block
		// of twice the old one or of one set — 1024 words at most from the
		// u16 encodings, the words present from the dense ones.
		if c := cap(shared.dets); c > detsBefore && c > max(4096, len(data)) {
			t.Fatalf("a %d-byte frame grew the decoder from %d to %d entries", len(data), detsBefore, c)
		}
		if c := cap(shared.words); c > max(2*wordsBefore, 1024, len(data)/8) {
			t.Fatalf("a %d-byte frame grew the decoder from %d to %d holder words", len(data), wordsBefore, c)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if !equalEnvelopes(e, &rx) {
			t.Fatalf("a reused Decoder decoded\n %+v\na fresh one\n %+v", rx, e)
		}
		frame, err := EncodeChecked(e)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v\nenvelope: %+v", err, e)
		}
		if got := Size(e); got != len(frame) {
			t.Fatalf("Size reports %d, encoder produced %d bytes", got, len(frame))
		}
		e2, err := Decode(frame)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !equalEnvelopes(e, e2) {
			t.Fatalf("round trip changed the envelope:\n first: %+v\nsecond: %+v", e, e2)
		}
	})
}
