package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
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

// equalEnvelopes compares semantically: bitsets with different capacities
// but equal contents compare equal.
func equalEnvelopes(a, b *Envelope) bool {
	if a.Kind != b.Kind || a.From != b.From || a.To != b.To || a.FromInc != b.FromInc ||
		a.SSN != b.SSN || a.Dseq != b.Dseq || a.CPRsn != b.CPRsn || a.Ord != b.Ord || a.Round != b.Round ||
		a.CPDseq != b.CPDseq {
		return false
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	if len(a.Dets) != len(b.Dets) {
		return false
	}
	for i := range a.Dets {
		if a.Dets[i].Det != b.Dets[i].Det || !a.Dets[i].Holders.Equal(b.Dets[i].Holders) {
			return false
		}
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

func TestKindStrings(t *testing.T) {
	for k := Kind(1); k < kindMax; k++ {
		if k.String() == "kind?" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "kind?" || Kind(200).String() != "kind?" {
		t.Error("unknown kinds must render as kind?")
	}
	if KindApp.Control() {
		t.Error("app messages are not control traffic")
	}
	if !KindDepRequest.Control() {
		t.Error("dep requests are control traffic")
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

// TestDecodeIntoReusesOnlyTheStruct: decoding the next frame into the same
// envelope overwrites every field (nothing of the previous frame shows
// through) and leaves the previous frame's slices untouched, which is what
// lets a handler keep them after the runtime reuses the struct.
func TestDecodeIntoReusesOnlyTheStruct(t *testing.T) {
	samples := sampleEnvelopes()
	var e Envelope
	for i, first := range samples {
		if err := DecodeInto(&e, Encode(first)); err != nil {
			t.Fatal(err)
		}
		held := e // the struct copy a handler keeps
		for _, second := range samples {
			if err := DecodeInto(&e, Encode(second)); err != nil {
				t.Fatal(err)
			}
			if !equalEnvelopes(&e, second) {
				t.Fatalf("decode over sample %d left stale fields:\n got: %+v\nwant: %+v", i, e, second)
			}
		}
		if !equalEnvelopes(&held, first) {
			t.Fatalf("sample %d: held copy changed after later decodes:\n got: %+v\nwant: %+v", i, held, first)
		}
	}
	if err := DecodeInto(&e, []byte{2}); err == nil {
		t.Fatal("DecodeInto accepted a truncated frame")
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

// TestKeepSurvivesDecoderReuse is the receive half of the ownership
// contract (DESIGN §5): a long-lived Decoder overwrites the Dets of the
// frame before, so what a handler has from Keep must be a deep copy. It is
// the named test that kills the "reuse the rx envelope" mutant of ROADMAP
// 2(c) in its shallow-Keep form: with Keep reduced to a struct copy the
// kept determinants read as the later frames'.
func TestKeepSurvivesDecoderReuse(t *testing.T) {
	var (
		d  Decoder
		rx Envelope
	)
	first := piggybackFrame(10, 9)
	if err := d.Decode(&rx, Encode(first)); err != nil {
		t.Fatal(err)
	}
	if !equalEnvelopes(&rx, first) {
		t.Fatalf("Decoder.Decode disagrees with the envelope encoded:\n got: %+v\nwant: %+v", rx, first)
	}
	shallow := rx // what a handler that forgot Keep holds
	kept := rx.Keep()
	for _, next := range []*Envelope{piggybackFrame(40, 9), piggybackFrame(90, 12)} {
		if err := d.Decode(&rx, Encode(next)); err != nil {
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
	if err := d.Decode(&rx, Encode(&Envelope{Kind: KindHeartbeat, From: 1, FromInc: 1})); err != nil || rx.Dets != nil {
		t.Fatalf("a frame without determinants decoded to Dets %v (err %v), want nil", rx.Dets, err)
	}
}

// TestDecoderSteadyStateAllocs: a warmed decoder allocates the payload of
// an application frame and nothing per determinant, whatever the holder
// encoding.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	var (
		d  Decoder
		rx Envelope
	)
	frame := Encode(piggybackFrame(10, 64))
	decode := func() {
		if err := d.Decode(&rx, frame); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if got := testing.AllocsPerRun(50, decode); got != 1 {
		t.Fatalf("decoding a 64-determinant frame allocates %.1f times, want 1 (the payload)", got)
	}
}

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
	dense := NewWriter(16)
	dense.U32(7)
	dense.Bytes(make([]byte, pad))
	if !bytes.Equal(w.Frame()[:8], dense.Frame()[:8]) {
		t.Fatal("Pad must write the same prefix Bytes writes for that many zeros")
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
	for _, off := range []int{-1, +1, -pad} {
		if r, _ := read(w.Frame(), pad+off, false); !errors.Is(r.Err(), ErrPad) || r.Done() {
			t.Fatalf("image with %+d padding: err=%v done=%v, want ErrPad", off, r.Err(), r.Done())
		}
	}
	// Padding the codec never reads is unconsumed input, like trailing bytes.
	w2 := NewWriter(12)
	w2.U32(7)
	w2.U64(9)
	if r, _ := read(w2.Frame(), 1, true); r.Err() != nil || r.Done() {
		t.Fatalf("unread padding: err=%v done=%v, want not done", r.Err(), r.Done())
	}
	if r, _ := read(w2.Frame(), 0, true); !r.Done() {
		t.Fatalf("a plain frame is an image without padding: err=%v", r.Err())
	}
	big := NewWriter(4)
	big.Pad(maxListLen + 1)
	r := NewImageReader(big.Frame(), maxListLen+1)
	if r.Pad(); !errors.Is(r.Err(), ErrOversized) {
		t.Fatalf("pad beyond the list limit: err=%v, want ErrOversized as for Bytes", r.Err())
	}

	// One run of padding per image: no Reader could decode two, so the
	// Writer refuses the second.
	defer func() {
		if recover() == nil {
			t.Fatal("a second non-empty Pad must panic")
		}
	}()
	w.Pad(1)
}
