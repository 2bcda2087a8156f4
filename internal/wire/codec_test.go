package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/mutant"
	"rollrec/internal/storage"
)

func sampleEnvelopes() []*Envelope {
	return []*Envelope{
		{Kind: KindHeartbeat, From: 1, To: 2, FromInc: 1},
		{
			Kind: KindApp, From: 0, To: 3, FromInc: 2, SSN: 77, Dseq: 12,
			Payload: []byte("hello"),
			Dets: []det.Entry{
				{
					Det:     det.Determinant{Msg: ids.MsgID{Sender: 0, SSN: 1}, Receiver: 3, RSN: 9},
					Holders: bitset.FromSlice([]int{0, 3, 64}),
				},
			},
		},
		{
			Kind: KindCheckpointNotice, From: 2, To: 0, FromInc: 1,
			CPRsn: 42, SSNWatermarks: []ids.SSN{1, 0, 7, 3},
		},
		{
			Kind: KindDepRequest, From: 1, To: 2, FromInc: 3,
			Ord: ids.Ordinal{Clock: 12, Proc: 1}, Round: 2,
			IncVec: []ids.Incarnation{1, 3, 1, 2},
		},
		{
			Kind: KindReplayRequest, From: 1, To: 0, FromInc: 3,
			MsgIDs: []ids.MsgID{{Sender: 0, SSN: 4}, {Sender: 0, SSN: 5}},
		},
		{
			Kind: KindDetsToStorage, From: 2, To: ids.StorageProc, FromInc: 1,
			Dets: []det.Entry{
				{Det: det.Determinant{Msg: ids.MsgID{Sender: 2, SSN: 8}, Receiver: 1, RSN: 3}},
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, e := range sampleEnvelopes() {
		frame := Encode(e)
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", e.Kind, err)
		}
		if !equalEnvelopes(e, got) {
			t.Fatalf("%v: round trip mismatch:\n in: %+v\nout: %+v", e.Kind, e, got)
		}
	}
}

// detsOf returns e's determinants as entries, from Dets or a list.
func detsOf(e *Envelope) []det.Entry { return e.Clone().Dets }

// equalEntries compares two entry lists in order, holder sets by contents.
func equalEntries(a, b []det.Entry) bool {
	return slices.EqualFunc(a, b, func(x, y det.Entry) bool { return x.Det == y.Det && x.Holders.Equal(y.Holders) })
}

// equalEnvelopes compares semantically: bitsets with different capacities
// but equal contents compare equal, and so do Dets and a list of the same
// entries.
func equalEnvelopes(a, b *Envelope) bool {
	if a.Kind != b.Kind || a.From != b.From || a.To != b.To || a.FromInc != b.FromInc ||
		a.SSN != b.SSN || a.Dseq != b.Dseq || a.CPRsn != b.CPRsn || a.Ord != b.Ord || a.Round != b.Round ||
		a.CPDseq != b.CPDseq || a.Pad != b.Pad {
		return false
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	if !equalEntries(detsOf(a), detsOf(b)) {
		return false
	}
	if len(a.SSNWatermarks) != len(b.SSNWatermarks) || len(a.IncVec) != len(b.IncVec) ||
		len(a.MsgIDs) != len(b.MsgIDs) || len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	for i := range a.SSNWatermarks {
		if a.SSNWatermarks[i] != b.SSNWatermarks[i] {
			return false
		}
	}
	for i := range a.IncVec {
		if a.IncVec[i] != b.IncVec[i] {
			return false
		}
	}
	for i := range a.MsgIDs {
		if a.MsgIDs[i] != b.MsgIDs[i] {
			return false
		}
	}
	return true
}

func TestSizeMatchesEncode(t *testing.T) {
	for _, e := range sampleEnvelopes() {
		if got, want := Size(e), len(Encode(e)); got != want {
			t.Errorf("%v: Size = %d, Encode length = %d", e.Kind, got, want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good := Encode(sampleEnvelopes()[1])

	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(nil); err == nil {
			t.Fatal("decoding empty frame must fail")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		// Exactly codecVersion decodes: frames never outlive a process, so
		// the retired v1 is as foreign as a future one.
		for _, v := range []byte{0, 1, codecVersion + 1, 99} {
			bad := append([]byte(nil), good...)
			bad[0] = v
			if _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("version %d: err = %v, want ErrBadVersion", v, err)
			}
		}
	})
	t.Run("bad kind", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[1] = 0
		if _, err := Decode(bad); err == nil {
			t.Fatal("kind 0 must fail")
		}
		bad[1] = byte(kindMax)
		if _, err := Decode(bad); err == nil {
			t.Fatal("kind out of range must fail")
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 1; cut < len(good); cut++ {
			if _, err := Decode(good[:cut]); err == nil {
				t.Fatalf("truncation at %d must fail", cut)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), good...), 0xFF)); err == nil {
			t.Fatal("trailing bytes must fail")
		}
	})
}

// randomEnvelope builds an arbitrary but valid envelope from fuzz input.
func randomEnvelope(rng *rand.Rand) *Envelope {
	e := &Envelope{
		Kind:    Kind(1 + rng.Intn(int(kindMax)-1)),
		From:    ids.ProcID(rng.Intn(8)),
		To:      ids.ProcID(rng.Intn(8)),
		FromInc: ids.Incarnation(rng.Intn(5)),
		SSN:     ids.SSN(rng.Intn(100)),
		Dseq:    uint64(rng.Intn(50)),
		Round:   uint32(rng.Intn(3)),
		CPRsn:   ids.RSN(rng.Intn(50)),
	}
	if rng.Intn(2) == 0 {
		e.Payload = make([]byte, rng.Intn(64))
		rng.Read(e.Payload)
	}
	if rng.Intn(3) == 0 {
		e.CPDseq = uint64(1 + rng.Intn(50))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		e.Members = append(e.Members, ids.ProcID(rng.Intn(1024)))
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		holders := bitset.Set{}
		// Span the full n=1024 universe (and occasionally beyond) so the
		// fuzz covers every holder encoding the chooser can pick.
		universe := []int{65, 1025, 70_000}[rng.Intn(3)]
		for j, m := 0, rng.Intn(40); j < m; j++ {
			holders.Add(rng.Intn(universe))
		}
		if rng.Intn(4) == 0 { // long runs favor the RLE form
			start := rng.Intn(1024)
			for j, m := 0, rng.Intn(200); j < m; j++ {
				holders.Add(start + j)
			}
		}
		e.Dets = append(e.Dets, det.Entry{
			Det: det.Determinant{
				Msg:      ids.MsgID{Sender: ids.ProcID(rng.Intn(8)), SSN: ids.SSN(rng.Intn(1000))},
				Receiver: ids.ProcID(rng.Intn(8)),
				RSN:      ids.RSN(rng.Intn(1000)),
			},
			Holders: holders,
		})
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		e.SSNWatermarks = append(e.SSNWatermarks, ids.SSN(rng.Intn(100)))
		e.IncVec = append(e.IncVec, ids.Incarnation(rng.Intn(5)))
		e.MsgIDs = append(e.MsgIDs, ids.MsgID{Sender: ids.ProcID(rng.Intn(8)), SSN: ids.SSN(rng.Intn(100))})
	}
	if rng.Intn(3) == 0 {
		e.Ord = ids.Ordinal{Clock: uint64(1 + rng.Intn(100)), Proc: ids.ProcID(rng.Intn(8))}
	}
	return e
}

func TestQuickRoundTripAndSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomEnvelope(rng)
		frame := Encode(e)
		if len(frame) != Size(e) {
			return false
		}
		got, err := Decode(frame)
		if err != nil {
			return false
		}
		return equalEnvelopes(e, got)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeNeverPanics feeds random bytes to the decoder; it must
// return an error or an envelope, never panic or over-allocate.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(frame []byte) bool {
		_, _ = Decode(frame)
		return true
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := sampleEnvelopes()[1]
	c := e.Clone()
	c.Payload[0] = 'X'
	c.Dets[0].Holders.Add(50)
	if e.Payload[0] == 'X' {
		t.Fatal("Clone shares payload")
	}
	if e.Dets[0].Holders.Contains(50) {
		t.Fatal("Clone shares holder sets")
	}
	if !reflect.DeepEqual(e.Kind, c.Kind) || e.SSN != c.SSN {
		t.Fatal("Clone lost fields")
	}
}

// TestKindStrings: that every kind has a name is TestKindStringsCompleteAndUnique's.
func TestKindStrings(t *testing.T) {
	if Kind(0).String() != "kind?" || Kind(200).String() != "kind?" {
		t.Error("unknown kinds must render as kind?")
	}
}

func BenchmarkEncodeApp(b *testing.B) {
	e := sampleEnvelopes()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(e)
	}
}

func BenchmarkDecodeApp(b *testing.B) {
	frame := Encode(sampleEnvelopes()[1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// allocGateEnvelopes is the corpus of TestEncodeAllocs: one envelope per
// kind (the shape TestEveryKindRoundTrips uses), the samples, and whatever
// the fuzz seed corpus decodes to.
func allocGateEnvelopes() []*Envelope {
	out := sampleEnvelopes()
	for k := Kind(1); int(k) < KindCount; k++ {
		out = append(out, &Envelope{Kind: k, From: 1, To: 2, FromInc: 3, Dseq: 7,
			Ord: ids.Ordinal{Clock: 5, Proc: 1}})
	}
	for _, frame := range fuzzSeedFrames() {
		if e, err := Decode(frame); err == nil {
			out = append(out, e)
		}
	}
	return out
}

// TestEncodeAllocs is the send-path allocation gate: a frame is allocated
// once, at exactly its encoded size — determinants, watermarks and all —
// never grown.
func TestEncodeAllocs(t *testing.T) {
	for i, e := range allocGateEnvelopes() {
		frame := Encode(e)
		if len(frame) != Size(e) || cap(frame) != len(frame) {
			t.Errorf("envelope %d (%v): len %d cap %d, want both == Size = %d",
				i, e.Kind, len(frame), cap(frame), Size(e))
		}
		if got := testing.AllocsPerRun(20, func() { Encode(e) }); got != 1 {
			t.Errorf("envelope %d (%v): Encode allocates %.1f times, want exactly 1", i, e.Kind, got)
		}
	}
}

// dirtyBuffer is a recycled frame buffer of the given capacity, every byte
// of it 0xFF.
func dirtyBuffer(capacity int) []byte {
	buf := make([]byte, capacity)
	for i := range buf {
		buf[i] = 0xFF
	}
	return buf
}

// TestEncodeIntoDirtyBuffer: encoding into a reused buffer full of 0xFF
// gives exactly the bytes of a fresh EncodeChecked, in that buffer when it
// holds the frame and in a fresh one when it does not — for envelopes with a
// payload, with Dets, with a list reading a view and with a pad. An encoder that skipped
// a field instead of writing it would leave 0xFF behind.
func TestEncodeIntoDirtyBuffer(t *testing.T) {
	var view DetList
	view.SetView(viewLog(t, det.Config{N: 100, F: 10}).View([]ids.ProcID{3, 7}))
	envelopes := append(sampleEnvelopes(), paddedEnvelopes()...)
	envelopes = append(envelopes, piggybackFrame(10, 40),
		&Envelope{Kind: KindDepReply, From: 2, FromInc: 3, Round: 4, DetList: &view})
	for i, e := range envelopes {
		fresh, err := EncodeChecked(e)
		if err != nil {
			t.Fatal(err)
		}
		n := len(fresh.Data)
		for _, capacity := range []int{n, n + 37, n - 1} {
			buf := dirtyBuffer(capacity)
			got, err := EncodeInto(buf, e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Data, fresh.Data) || got.Pad != fresh.Pad {
				t.Fatalf("envelope %d (%v) into a dirty %d-byte buffer:\n got %x+%d\nwant %x+%d",
					i, e.Kind, capacity, got.Data, got.Pad, fresh.Data, fresh.Pad)
			}
			if inPlace := &got.Data[0] == &buf[0]; inPlace != (capacity >= n) {
				t.Fatalf("envelope %d (%v): a %d-byte frame in a %d-byte buffer was written in place: %v",
					i, e.Kind, n, capacity, inPlace)
			}
		}
	}
}

// TestDecodeIntoReusesOnlyTheStruct: an envelope Decode returned is the
// caller's, slices included — its Payload a view of its own frame, the rest
// its own copies — so decoding every other frame afterwards leaves it equal
// to what was encoded, which is what lets a handler keep it.
func TestDecodeIntoReusesOnlyTheStruct(t *testing.T) {
	samples := sampleEnvelopes()
	for i, first := range samples {
		held, err := Decode(Encode(first))
		if err != nil {
			t.Fatal(err)
		}
		for _, second := range samples {
			e, err := Decode(Encode(second))
			if err != nil {
				t.Fatal(err)
			}
			if !equalEnvelopes(e, second) {
				t.Fatalf("decoded sample differs:\n got: %+v\nwant: %+v", e, second)
			}
		}
		if !equalEnvelopes(held, first) {
			t.Fatalf("sample %d: held envelope changed after later decodes:\n got: %+v\nwant: %+v", i, held, first)
		}
	}
	if _, err := Decode([]byte{2}); err == nil {
		t.Fatal("Decode accepted a truncated frame")
	}
}

// piggybackFrame is an application frame with k determinants, each with its
// own id and a holder set of its own shape (dense, two words, and past the
// dense-u8 cutoff so the tagged encodings are exercised too).
func piggybackFrame(ssn ids.SSN, k int) *Envelope {
	e := &Envelope{Kind: KindApp, From: 1, To: 2, FromInc: 1, SSN: ssn, Dseq: uint64(ssn), Payload: []byte{byte(ssn)}}
	for i := 0; i < k; i++ {
		holders := []int{i % 7, int(ssn) % 5}
		switch i % 3 {
		case 1:
			holders = append(holders, 64+i)
		case 2:
			holders = append(holders, 300+i, 301+i)
		}
		e.Dets = append(e.Dets, det.Entry{
			Det:     det.Determinant{Msg: ids.MsgID{Sender: ids.ProcID(i % 4), SSN: ssn + ids.SSN(i)}, Receiver: 2, RSN: ids.RSN(ssn) + ids.RSN(i)},
			Holders: bitset.FromSlice(holders),
		})
	}
	return e
}

// decoderFrames are the frames whose lists a Decoder holds, each made at a
// base value and a length: a piggyback (DetList), a
// checkpoint notice (SSNWatermarks) and a gather request (IncVec).
var decoderFrames = []struct {
	name string
	make func(base, k int) *Envelope
}{
	{"piggyback", func(base, k int) *Envelope { return piggybackFrame(ids.SSN(base), k) }},
	{"checkpoint notice", func(base, k int) *Envelope {
		e := &Envelope{Kind: KindCheckpointNotice, From: 1, FromInc: 1, CPRsn: ids.RSN(base)}
		for i := range k {
			e.SSNWatermarks = append(e.SSNWatermarks, ids.SSN(base+i))
		}
		return e
	}},
	{"dep request", func(base, k int) *Envelope {
		e := &Envelope{Kind: KindDepRequest, From: 1, FromInc: 2, Ord: ids.Ordinal{Clock: 3, Proc: 1}, Round: 1}
		for i := range k {
			e.IncVec = append(e.IncVec, ids.Incarnation(base+i))
		}
		return e
	}},
}

// TestKeepSurvivesDecoderReuse is the receive half of the ownership
// contract (DESIGN §5): a long-lived Decoder overwrites the DetList,
// SSNWatermarks and IncVec of the frame before, so what a handler has from
// Keep must be a deep copy. It is the named test that kills the "reuse the rx
// envelope" mutant of ROADMAP 2(c) in its shallow-Keep form: with Keep
// reduced to a struct copy the kept lists read as the later frames'.
func TestKeepSurvivesDecoderReuse(t *testing.T) {
	for _, f := range decoderFrames {
		t.Run(f.name, func(t *testing.T) {
			var (
				d  Decoder
				rx Envelope
			)
			first := f.make(10, 9)
			if err := d.Decode(&rx, frameOf(Encode(first))); err != nil {
				t.Fatal(err)
			}
			if !equalEnvelopes(&rx, first) {
				t.Fatalf("Decoder.Decode disagrees with the envelope encoded:\n got: %+v\nwant: %+v", rx, first)
			}
			shallow := rx // what a handler that forgot Keep holds
			kept := rx.Keep()
			for _, next := range []*Envelope{f.make(40, 9), f.make(90, 12)} {
				if err := d.Decode(&rx, frameOf(Encode(next))); err != nil {
					t.Fatal(err)
				}
				if !equalEnvelopes(&rx, next) {
					t.Fatalf("decode after reuse:\n got: %+v\nwant: %+v", rx, next)
				}
			}
			if !equalEnvelopes(kept, first) {
				t.Fatalf("kept envelope changed after the decoder decoded two further frames:\n got: %+v\nwant: %+v", kept, first)
			}
			if equalEnvelopes(&shallow, first) {
				t.Fatal("setup: a struct copy survived decoder reuse, so this test cannot tell a shallow Keep from a deep one")
			}
			if err := d.Decode(&rx, frameOf(Encode(&Envelope{Kind: KindHeartbeat, From: 1, FromInc: 1}))); err != nil ||
				rx.DetList != nil || rx.SSNWatermarks != nil || rx.IncVec != nil {
				t.Fatalf("a frame without lists decoded to %+v (err %v), want nil lists", rx, err)
			}
		})
	}
}

// TestDecoderSteadyStateAllocs: a warmed decoder allocates nothing for an
// application frame — the payload and the determinants are read in place,
// whatever the holder encoding — nor for a checkpoint notice's
// watermarks or a gather request's incarnation vector.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	for _, f := range decoderFrames {
		var (
			d  Decoder
			rx Envelope
		)
		frame := Encode(f.make(10, 64))
		decode := func() {
			if err := d.Decode(&rx, frameOf(frame)); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		if got := testing.AllocsPerRun(50, decode); got != 0 {
			t.Errorf("decoding a %s of 64 entries allocates %.1f times, want 0", f.name, got)
		}
	}
}

// TestDecodedPayloadIsAViewOfTheFrame: Reader.Bytes returns the field in
// place, so a decoded Payload shares the frame's backing array; its capacity
// is its length, so an append copies instead of overwriting the field after
// it; and Keep copies it, since the simulator reuses a frame once its
// delivery returns: a kept payload survives the frame being overwritten,
// while under mutant.KeepSharesPayload it reads the overwrite. The
// determinant list, the next field, is a view the same way, and Keep copies
// its bytes too.
func TestDecodedPayloadIsAViewOfTheFrame(t *testing.T) {
	e := piggybackFrame(10, 3)
	e.Payload = []byte("payload") // the determinants are the next field
	frame := Encode(e)
	var (
		d  Decoder
		rx Envelope
	)
	if err := d.Decode(&rx, frameOf(frame)); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(frame, e.Payload)
	if at < 0 || &rx.Payload[0] != &frame[at] {
		t.Fatal("decoded Payload is a copy, want a view of the frame")
	}
	if l := rx.DetList; l == nil || &l.buf[0] != &frame[at+len(e.Payload)+4] || cap(l.buf) != len(l.buf) {
		t.Fatal("the decoded DetList is not a view of the frame's determinant entries")
	}
	if cap(rx.Payload) != len(rx.Payload) {
		t.Fatalf("Payload len %d cap %d: an append could reach the frame's next field", len(rx.Payload), cap(rx.Payload))
	}
	grown := append(rx.Payload, 'X')
	if &grown[0] == &rx.Payload[0] || !bytes.Equal(frame, Encode(e)) {
		t.Fatal("appending to the Payload wrote into the frame")
	}
	kept := rx.Keep()
	mutant.On = mutant.KeepSharesPayload
	shared := rx.Keep()
	mutant.On = mutant.None
	if &kept.Payload[0] == &rx.Payload[0] || !bytes.Equal(kept.Payload, e.Payload) {
		t.Fatal("Keep shares the Payload; a kept frame must own a copy")
	}
	if &shared.Payload[0] != &rx.Payload[0] {
		t.Fatal("mutant.KeepSharesPayload: Keep still copies the Payload")
	}
	recycled := slices.Clone(frame)
	for i := range frame {
		frame[i] = 0xA5 // what a poisoned or reused frame holds
	}
	if !bytes.Equal(kept.Payload, e.Payload) || bytes.Equal(shared.Payload, e.Payload) {
		t.Fatalf("after the frame is overwritten the kept payload reads %q and the shared one %q", kept.Payload, shared.Payload)
	}
	if !equalEntries(detsOf(kept), e.Dets) {
		t.Fatal("after the frame is overwritten the kept determinants changed: Keep shares the list's bytes")
	}
	copy(frame, recycled)
	field := frame[at-4:] // the payload's length prefix onward
	read := func() {
		r := Reader{buf: field}
		if !bytes.Equal(r.Bytes(), e.Payload) || r.Err() != nil {
			t.Fatal("Reader.Bytes misread the field")
		}
	}
	if got := testing.AllocsPerRun(10, read); got != 0 {
		t.Fatalf("Reader.Bytes allocates %.1f times, want 0", got)
	}
}

// frameOf is the frame of bytes that hold all their zeros.
func frameOf(b []byte) storage.Image { return storage.Image{Data: b} }

// TestPadIsCountedNotWritten: Writer.Pad puts the length field Bytes would
// in the frame and only counts the zeros; a Reader over (frame, count)
// accepts exactly that pair. Logical offsets advance across the padding so
// a codec can find the end of a length-prefixed section that contains it.
func TestPadIsCountedNotWritten(t *testing.T) {
	const pad = 1 << 20
	w := NewWriter(16)
	w.U32(7)
	w.Pad(pad)
	w.U64(9)
	if len(w.Frame()) != 4+4+8 || w.Padded() != pad {
		t.Fatalf("frame is %d B with %d counted; Pad must write its 4 B length field only", len(w.Frame()), w.Padded())
	}
	bytesW := NewWriter(16)
	bytesW.U32(7)
	bytesW.Bytes(make([]byte, pad))
	if !bytes.Equal(w.Frame()[:8], bytesW.Frame()[:8]) {
		t.Fatal("Pad must write the length field Bytes writes for that many zeros")
	}

	read := func(frame []byte, pad int, skipPad bool) (*Reader, uint64) {
		r := NewImageReader(frame, pad)
		r.U32()
		if !skipPad {
			r.Pad()
		}
		return r, r.U64()
	}
	if r, tail := read(w.Frame(), pad, false); !r.Done() || tail != 9 || r.Pos() != 4+4+pad+8 {
		t.Fatalf("matching image: done=%v err=%v tail=%d pos=%d", r.Done(), r.Err(), tail, r.Pos())
	}
	for _, off := range []int{-1, -pad} {
		if r, _ := read(w.Frame(), pad+off, false); !errors.Is(r.Err(), ErrPad) || r.Done() {
			t.Fatalf("image with %+d padding: err=%v done=%v, want ErrPad", off, r.Err(), r.Done())
		}
	}
	// Padding no field claims is unconsumed input, like trailing bytes.
	if r, _ := read(w.Frame(), pad+1, false); r.Err() != nil || r.Done() {
		t.Fatalf("image with one zero too many: err=%v done=%v, want not done", r.Err(), r.Done())
	}
	w2 := NewWriter(12)
	w2.U32(7)
	w2.U64(9)
	if r, _ := read(w2.Frame(), 1, true); r.Err() != nil || r.Done() {
		t.Fatalf("unread padding: err=%v done=%v, want not done", r.Err(), r.Done())
	}
	if r, _ := read(w2.Frame(), 0, true); !r.Done() {
		t.Fatalf("a plain frame is an image without padding: err=%v", r.Err())
	}
	// A count of modelled zeros is bounded by the image's padding, not by
	// maxListLen: nothing is allocated for it.
	big := NewWriter(4)
	big.Pad(2 * maxListLen)
	big.Pad(1)
	r := NewImageReader(big.Frame(), 2*maxListLen+1)
	if r.Pad(); r.Err() != nil {
		t.Fatalf("pad beyond the list limit: %v", r.Err())
	}
	if r.Pad(); !r.Done() || r.Pos() != 8+2*maxListLen+1 {
		t.Fatalf("two runs of padding in one image: err=%v pos=%d", r.Err(), r.Pos())
	}
}

// TestImageBytesKeepsThePad: an ImageBytes field reads back as the image it
// was, its pad still a count, and is as long as Bytes of the data and the
// zeros once the count is added: an image's Size is its materialised
// length. Pads from the short form's largest to the long form's smallest
// are written in the form the encoder chooses and no other.
func TestImageBytesKeepsThePad(t *testing.T) {
	data := []byte("8 bytes!")
	for _, pad := range []int{0, 1, 3, padLong - 1, padLong, padLong + 1, 8 << 20} {
		im := storage.Image{Data: data, Pad: pad}
		w := NewWriter(ImageBytesLen(im))
		if got := testing.AllocsPerRun(10, func() { w.buf, w.pad = w.buf[:0], 0; w.ImageBytes(im) }); got != 0 {
			t.Fatalf("pad %d: ImageBytes into a writer with room allocates %.1f times, want 0", pad, got)
		}
		if len(w.Frame()) != ImageBytesLen(im) || len(w.Frame())+w.Padded() != 4+len(data)+pad {
			t.Fatalf("pad %d: field is %d B + %d counted (ImageBytesLen %d); its materialised form is %d B",
				pad, len(w.Frame()), w.Padded(), ImageBytesLen(im), 4+len(data)+pad)
		}
		r := NewImageReader(w.Frame(), w.Padded())
		if got := r.ImageBytes(); !r.Done() || !bytes.Equal(got.Data, data) || got.Pad != pad {
			t.Fatalf("pad %d: read back %q + %d (err %v)", pad, got.Data, got.Pad, r.Err())
		}
		if pad == 0 {
			if !bytes.Equal(w.Frame(), append(binary.LittleEndian.AppendUint32(nil, 8), data...)) {
				t.Fatalf("an unpadded field is not what Bytes writes: %x", w.Frame())
			}
			continue
		}
		r = NewReader(w.Frame())
		if r.Bytes(); !errors.Is(r.Err(), ErrOversized) {
			t.Fatalf("pad %d: Bytes read a padded field: err=%v", pad, r.Err())
		}
	}
	// The long form holding a pad the short form carries is no encoder's.
	w := NewWriter(16)
	w.U32(uint32(len(data)) | padLong<<padShift)
	w.U32(padLong - 1)
	w.buf = append(w.buf, data...)
	r := NewImageReader(w.Frame(), padLong-1-4)
	if r.ImageBytes(); !errors.Is(r.Err(), ErrPad) {
		t.Fatalf("a long form of pad %d: err=%v, want ErrPad", padLong-1, r.Err())
	}
}
