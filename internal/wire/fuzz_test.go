package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"rollrec/internal/bitset"
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
		dets := detsOf(e)
		for _, n := range []int{1, 3, 64, 200} {
			l := det.NewLog(det.Config{N: n, F: 1})
			for _, en := range dets {
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
			for _, en := range dets {
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

// refArena is the reference decoder's holder-word arena: views into a block
// stay valid when a larger block replaces it.
type refArena struct{ words []uint64 }

func (d *refArena) holderWords(nw int) []uint64 {
	if len(d.words)+nw > cap(d.words) {
		d.words = make([]uint64, 0, max(2*cap(d.words), nw, 8))
	}
	d.words = d.words[:len(d.words)+nw]
	return d.words[len(d.words)-nw:]
}

func (d *refArena) readHolderWords(r *Reader, nw int) bitset.Set {
	if nw == 0 || !r.need(8*nw) {
		return bitset.Set{}
	}
	words := d.holderWords(nw)
	for i := range words {
		words[i] = r.U64()
	}
	return bitset.View(words)
}

func (d *refArena) holderSpan(maxElem int) bitset.Set {
	words := d.holderWords(maxElem/64 + 1)
	clear(words)
	return bitset.View(words)
}

// decodeHolders decodes one holder set with every read checked: the
// decoder's before skipEntry and holdersAt split the check from the read.
func (d *refArena) decodeHolders(r *Reader) bitset.Set {
	tag := r.U8()
	switch {
	case tag <= holderTagDenseU8Max:
		return d.readHolderWords(r, int(tag))
	case tag == holderTagSparse:
		n := int(r.U16())
		if !r.need(2 * n) {
			return bitset.Set{}
		}
		maxElem := 0
		for i := 0; i < n; i++ {
			maxElem = max(maxElem, int(binary.LittleEndian.Uint16(r.buf[r.off+2*i:])))
		}
		s := d.holderSpan(maxElem)
		for i := 0; i < n; i++ {
			s.Add(int(r.U16()))
		}
		return s
	case tag == holderTagRuns:
		n := int(r.U16())
		if !r.need(4 * n) {
			return bitset.Set{}
		}
		maxEnd, total := 0, 0
		for i := 0; i < n; i++ {
			start := int(binary.LittleEndian.Uint16(r.buf[r.off+4*i:]))
			end := int(binary.LittleEndian.Uint16(r.buf[r.off+4*i+2:]))
			if end < start {
				r.fail(fmt.Errorf("%w: run [%d,%d]", ErrBadHolders, start, end))
				return bitset.Set{}
			}
			if total += end - start + 1; total > 1<<16 {
				r.fail(fmt.Errorf("%w: runs expand to %d elements", ErrBadHolders, total))
				return bitset.Set{}
			}
			maxEnd = max(maxEnd, end)
		}
		s := d.holderSpan(maxEnd)
		for i := 0; i < n; i++ {
			start, end := int(r.U16()), int(r.U16())
			for e := start; e <= end; e++ {
				s.Add(e)
			}
		}
		return s
	case tag == holderTagDenseU16:
		nw := int(r.U16())
		if nw > maxListLen/8 {
			r.fail(ErrOversized)
			return bitset.Set{}
		}
		return d.readHolderWords(r, nw)
	default:
		r.fail(fmt.Errorf("%w: tag %d", ErrBadHolders, tag))
		return bitset.Set{}
	}
}

func (d *refArena) decodeEntry(r *Reader) det.Entry {
	var e det.Entry
	e.Det.Msg.Sender = ids.ProcID(r.I32())
	e.Det.Msg.SSN = ids.SSN(r.U64())
	e.Det.Receiver = ids.ProcID(r.I32())
	e.Det.RSN = ids.RSN(r.U64())
	e.Holders = d.decodeHolders(r)
	return e
}

// refDecode is the reference FuzzDecodeFrame holds Decode to: the decoder
// as it was while it materialised every determinant — each entry decoded
// (decodeEntry) where Decode only checks it — returning the entries it
// decoded, or the error Decode must return.
func refDecode(frame storage.Image) ([]det.Entry, error) {
	r := &Reader{buf: frame.Data}
	if v := r.U8(); r.err == nil && v != codecVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	if kind := Kind(r.U8()); r.err == nil && (kind == 0 || kind >= kindMax) {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
	r.I32()
	r.I32()
	r.U32()
	p := r.U16()
	if p&hasSSN != 0 {
		r.U64()
	}
	if p&hasDseq != 0 {
		r.U64()
	}
	switch {
	case p&hasPayload != 0:
		n := r.ListLen()
		if r.err == nil && (frame.Pad < 0 || frame.Pad > n) {
			return nil, fmt.Errorf("%w: %d B of padding in a %d B payload", ErrPad, frame.Pad, n)
		}
		if n -= frame.Pad; n > 0 {
			r.skip(n)
		}
	case frame.Pad != 0:
		return nil, fmt.Errorf("%w: %d B of padding in a frame with no payload", ErrPad, frame.Pad)
	}
	var (
		entries []det.Entry
		a       refArena
	)
	if p&hasDets != 0 {
		for i, n := 0, r.ListLen(); i < n && r.err == nil; i++ {
			entries = append(entries, a.decodeEntry(r))
		}
	}
	list := func(width int) {
		for i, n := 0, r.ListLen(); i < n && r.err == nil; i++ {
			r.skip(width)
		}
	}
	for _, f := range []struct {
		bit   uint16
		width int // of a fixed field, or of a list's element (list)
		list  bool
	}{
		{hasCPRsn, 8, false}, {hasSSNWatermarks, 8, true}, {hasOrd, 12, false}, {hasRound, 4, false},
		{hasIncVec, 4, true}, {hasMsgIDs, 12, true}, {hasCPDseq, 8, false}, {hasMembers, 4, true},
	} {
		switch {
		case p&f.bit == 0:
		case f.list:
			list(f.width)
		default:
			r.skip(f.width)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(frame.Data) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(frame.Data)-r.off)
	}
	return entries, nil
}

// within reports whether sub lies inside whole's bytes, its capacity too.
func within(sub, whole []byte) bool {
	lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(whole))), uintptr(unsafe.Pointer(unsafe.SliceData(whole)))+uintptr(len(whole))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(sub)))
	return lo <= p && p+uintptr(cap(sub)) <= hi
}

// recordEach records entries into l one by one, as RecordInto must, and
// returns the first error.
func recordEach(l *det.Log, entries []det.Entry, also ids.ProcID) error {
	for _, en := range entries {
		if err := l.RecordHeld(en, also); err != nil {
			return err
		}
	}
	return nil
}

// FuzzDecodeFrame throws arbitrary frames — bytes and a count of modelled
// payload zeros — at the frame decoder. Six properties must hold for every
// input:
//
//  1. Decode never panics — corrupted frames, and padding the frame's
//     payload field cannot hold, fail with an error — and it accepts exactly
//     what refDecode, the decoder that materialised every determinant,
//     accepts, refusing the rest with the same error.
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
//     fresh decode each time — same envelope or same rejection — and its
//     determinant list is a sub-slice of the frame.
//  6. The list merged where it lies (RecordInto, through the long-lived
//     decoder's list and the holder words it reuses) leaves a fresh log as
//     recording refDecode's entries one by one does — the same All() and
//     the same first error, a conflict or an invalid determinant — at a
//     narrow and a wide holder universe, and one corrupted entry does not
//     make those words grow past what the frame's own bytes could hold.
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
		errShared := shared.Decode(&rx, frame)
		if (err == nil) != (errShared == nil) || (err != nil && err.Error() != errShared.Error()) {
			t.Fatalf("a reused Decoder says %v, a fresh one %v", errShared, err)
		}
		ref, errRef := refDecode(frame)
		if (err == nil) != (errRef == nil) || (err != nil && err.Error() != errRef.Error()) {
			t.Fatalf("Decode says %v, the materialising reference %v", err, errRef)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if !equalEnvelopes(e, &rx) {
			t.Fatalf("a reused Decoder decoded\n %+v\na fresh one\n %+v", rx, e)
		}
		if l := rx.DetList; l != nil && !within(l.buf, data) {
			t.Fatal("the decoded determinant list is not a sub-slice of the frame")
		}
		for _, cfg := range []det.Config{{N: 8, F: 2}, {N: 300, F: 300}} {
			got, want := det.NewLog(cfg), det.NewLog(cfg)
			before := cap(shared.list.wide)
			errGot, errWant := rx.DetList.RecordInto(got, rx.From), recordEach(want, ref, rx.From)
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) || !equalEntries(got.All(), want.All()) {
				t.Fatalf("N=%d: RecordInto gives %v and\n %v\nrecording the reference's entries %v and\n %v",
					cfg.N, errGot, got.All(), errWant, want.All())
			}
			// What one set may claim: 1024 words at most from the u16
			// encodings, the words present from the dense ones.
			if c := cap(shared.list.wide); c > max(before, 1024, len(data)/8) {
				t.Fatalf("a %d-byte frame grew the list's holder words from %d to %d", len(data), before, c)
			}
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
