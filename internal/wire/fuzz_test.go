package wire

import (
	"bytes"
	"errors"
	"testing"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/storage"
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
						l.View(e.Members).Collect()
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

// paddedEnvelopes are application envelopes whose payloads end in modelled
// padding, as every padding app sends them.
func paddedEnvelopes() []*Envelope {
	out := []*Envelope{
		{Kind: KindApp, From: 2, To: 1, FromInc: 1, SSN: 3, Dseq: 3, Payload: []byte{7, 0, 0, 0, 64, 0, 0, 0}, Pad: 64},
		{Kind: KindApp, From: 0, To: 1, FromInc: 1, Pad: 5}, // no data, padding only
	}
	pb := piggybackFrame(4, 9)
	pb.Payload, pb.Pad = []byte("hello"), 256
	return append(out, pb)
}

// TestPaddedFramesRoundTrip: a padded envelope's frame is its bytes without
// the zeros plus their count, re-encodes to exactly that pair, and is Size(e)
// bytes long once the zeros are written out (Encode), which decodes to the
// payload with its zeros.
func TestPaddedFramesRoundTrip(t *testing.T) {
	for _, e := range paddedEnvelopes() {
		frame, err := EncodeChecked(e)
		if err != nil {
			t.Fatal(err)
		}
		if frame.Pad != int(e.Pad) || frame.Size() != Size(e) || cap(frame.Data) != len(frame.Data) {
			t.Fatalf("frame is %d B (cap %d) + %d pad, want %d B in all with %d pad", len(frame.Data), cap(frame.Data), frame.Pad, Size(e), e.Pad)
		}
		var rx Envelope
		if err := new(Decoder).Decode(&rx, frame); err != nil || !equalEnvelopes(&rx, e) {
			t.Fatalf("decode: %v\n got %+v\nwant %+v", err, rx, e)
		}
		if re, _ := EncodeChecked(&rx); re.Pad != frame.Pad || !bytes.Equal(re.Data, frame.Data) {
			t.Fatal("a decoded padded frame does not re-encode to the same (data, pad)")
		}
		checkMaterialised(t, &rx)
	}
}

// TestDecodeRefusesStrayPad: padding the frame's payload field cannot hold —
// more than the field's length, or any on a frame with no payload — is an
// error, not a panic or a negative slice.
func TestDecodeRefusesStrayPad(t *testing.T) {
	e := paddedEnvelopes()[0]
	frame, _ := EncodeChecked(e)
	heartbeat := Encode(&Envelope{Kind: KindHeartbeat, From: 1, FromInc: 1})
	for name, bad := range map[string]storage.Image{
		"pad past the payload field": {Data: frame.Data, Pad: len(e.Payload) + frame.Pad + 1},
		"negative pad":               {Data: frame.Data, Pad: -1},
		"pad without a payload":      {Data: heartbeat, Pad: 1},
	} {
		var rx Envelope
		if err := new(Decoder).Decode(&rx, bad); !errors.Is(err, ErrPad) {
			t.Errorf("%s: err %v, want ErrPad", name, err)
		}
	}
}

// checkMaterialised asserts that e's logical bytes are those of its
// materialised form: Encode writes Size(e) bytes, which decode to the same
// envelope with the zeros in its payload.
func checkMaterialised(t *testing.T, e *Envelope) {
	t.Helper()
	dense := Encode(e)
	if len(dense) != Size(e) {
		t.Fatalf("materialised frame is %d B, Size says %d", len(dense), Size(e))
	}
	m, err := Decode(dense)
	if err != nil {
		t.Fatalf("materialised frame does not decode: %v", err)
	}
	want := *e
	want.Payload = append(append([]byte(nil), e.Payload...), make([]byte, e.Pad)...)
	if len(want.Payload) == 0 {
		want.Payload = nil
	}
	want.Pad = 0
	if !equalEnvelopes(m, &want) {
		t.Fatalf("materialised frame decodes to\n %+v\nwant\n %+v", m, &want)
	}
}

// FuzzDecodeFrame throws arbitrary frames — bytes and a count of modelled
// payload zeros — at the frame decoder. Five properties must hold for every
// input:
//
//  1. Decode never panics — corrupted frames, and padding the frame's
//     payload field cannot hold, fail with an error.
//  2. Any envelope Decode accepts is re-encodable (EncodeChecked must not
//     reject a frame the decoder considered well-formed) into a frame with
//     the same padding, and Size agrees with the encoder byte-for-byte.
//  3. Re-encoding then decoding is semantically lossless, and re-encoding is
//     then a fixed point. Byte-identity with the input is NOT required:
//     Decode accepts presence bits the encoder would normalize away, but the
//     envelope's meaning must survive the round trip (the seed frames, all
//     canonical, do come back byte for byte: TestPaddedFramesRoundTrip).
//  4. The envelope's logical bytes are those of its materialised form
//     (checkMaterialised).
//  5. One long-lived Decoder, fed every input of the run, agrees with a
//     fresh decode each time — same envelope or same rejection — and a
//     corrupted count does not make it grow its buffers past what the
//     frame's own bytes could hold.
//
// The seed corpus covers every envelope kind via the codec tests' sample
// envelopes, whole and cut in half, the padded envelopes with their padding,
// one zero too many and a zero short, plus a few degenerate frames (one with
// an old version byte).
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame, 0)
	}
	for _, e := range paddedEnvelopes() {
		frame, _ := EncodeChecked(e)
		f.Add(frame.Data, frame.Pad)
		f.Add(frame.Data, frame.Pad+1)
		f.Add(frame.Data, frame.Pad-1)
	}

	var (
		shared Decoder
		rx     Envelope
	)
	f.Fuzz(func(t *testing.T, data []byte, pad int) {
		frame := storage.Image{Data: data, Pad: pad}
		e := new(Envelope)
		err := new(Decoder).Decode(e, frame)
		detsBefore, wordsBefore := cap(shared.dets), cap(shared.words)
		errShared := shared.Decode(&rx, frame)
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
		re, err := EncodeChecked(e)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v\nenvelope: %+v", err, e)
		}
		if re.Pad != pad {
			t.Fatalf("a frame with %d B of padding re-encodes with %d", pad, re.Pad)
		}
		if got := Size(e); got != re.Size() {
			t.Fatalf("Size reports %d, encoder produced %d bytes", got, re.Size())
		}
		e2 := new(Envelope)
		if err := new(Decoder).Decode(e2, re); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !equalEnvelopes(e, e2) {
			t.Fatalf("round trip changed the envelope:\n first: %+v\nsecond: %+v", e, e2)
		}
		if again, _ := EncodeChecked(e2); !bytes.Equal(again.Data, re.Data) || again.Pad != re.Pad {
			t.Fatal("re-encoding a re-encoded frame changed it")
		}
		if dirty, _ := EncodeInto(dirtyBuffer(len(re.Data)+7), e); !bytes.Equal(dirty.Data, re.Data) || dirty.Pad != re.Pad {
			t.Fatal("encoding into a dirty reused buffer differs from a fresh encode")
		}
		checkMaterialised(t, e)
	})
}

// imageField is one field of an image: Bytes of Data (bytes), ImageBytes of
// (Data, Pad) (image), or Pad of Pad.
type imageField struct {
	kind byte
	im   storage.Image
}

const (
	fieldBytes = iota
	fieldImage
	fieldPad
)

// imageFields parses a fuzz script into fields: per field a kind byte, a
// data length byte and a three-byte little-endian pad (the pads reach past
// maxListLen), then the data, taken from the script as far as it goes.
func imageFields(script []byte) []imageField {
	var out []imageField
	for len(script) >= 5 && len(out) < 64 {
		kind, n := script[0]%3, int(script[1])
		pad := int(script[2]) | int(script[3])<<8 | int(script[4])<<16
		script = script[5:]
		n = min(n, len(script))
		f := imageField{kind: kind, im: storage.Image{Data: script[:n:n], Pad: pad}}
		script = script[n:]
		switch kind {
		case fieldBytes:
			f.im.Pad = 0
		case fieldPad:
			f.im.Data = nil
		}
		out = append(out, f)
	}
	return out
}

// imageScript is the fuzz script of fields.
func imageScript(fields ...imageField) []byte {
	var b []byte
	for _, f := range fields {
		b = append(b, f.kind, byte(len(f.im.Data)), byte(f.im.Pad), byte(f.im.Pad>>8), byte(f.im.Pad>>16))
		b = append(b, f.im.Data...)
	}
	return b
}

// FuzzImageFields writes a random sequence of Bytes, ImageBytes and Pad
// fields into one image and reads it back. Every field must read back as
// written, its pad a count, the image's Size must be the length of its
// materialised encoding (each field Bytes of its data and its zeros), and
// the image read with one zero more or one less must be refused.
func FuzzImageFields(f *testing.F) {
	for _, pad := range []int{0, 1, 3, padLong - 1, padLong, padLong + 1, 8 << 20} {
		f.Add(imageScript(
			imageField{fieldBytes, storage.Image{Data: []byte("app")}},
			imageField{fieldImage, storage.Image{Data: []byte("payload"), Pad: pad}},
			imageField{fieldPad, storage.Image{Pad: pad}},
			imageField{fieldImage, storage.Image{Pad: pad}}))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		fields := imageFields(script)
		w := NewWriter(0)
		materialised := 0
		for _, fl := range fields {
			switch fl.kind {
			case fieldBytes:
				w.Bytes(fl.im.Data)
			case fieldImage:
				w.ImageBytes(fl.im)
			case fieldPad:
				w.Pad(fl.im.Pad)
			}
			materialised += 4 + fl.im.Size()
		}
		img := storage.Image{Data: w.Frame(), Pad: w.Padded()}
		if img.Size() != materialised || img.Pad < 0 {
			t.Fatalf("image is %d B + %d pad; its materialised encoding is %d B", len(img.Data), img.Pad, materialised)
		}
		read := func(pad int) *Reader {
			r := NewImageReader(img.Data, pad)
			for i, fl := range fields {
				var got storage.Image
				switch fl.kind {
				case fieldBytes:
					got.Data = r.Bytes()
				case fieldImage:
					got = r.ImageBytes()
				case fieldPad:
					r.Pad()
					got.Pad = fl.im.Pad
				}
				if r.Err() == nil && (!bytes.Equal(got.Data, fl.im.Data) || got.Pad != fl.im.Pad) {
					t.Fatalf("field %d read back as %q + %d, written as %q + %d", i, got.Data, got.Pad, fl.im.Data, fl.im.Pad)
				}
			}
			return r
		}
		if r := read(img.Pad); !r.Done() {
			t.Fatalf("the image does not read back: %v", r.Err())
		}
		for _, off := range []int{-1, +1} {
			if read(img.Pad + off).Done() {
				t.Fatalf("the image read with %+d padding", off)
			}
		}
	})
}
