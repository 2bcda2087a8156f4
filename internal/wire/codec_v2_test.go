package wire

import (
	"errors"
	"testing"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
)

// detEnvelope wraps a single holder set in an app envelope, the shape the
// simulator piggybacks determinants in.
func detEnvelope(holders bitset.Set) *Envelope {
	return &Envelope{
		Kind: KindApp, From: 0, To: 1, FromInc: 1, SSN: 1, Dseq: 1,
		Dets: []det.Entry{{
			Det:     det.Determinant{Msg: ids.MsgID{Sender: 0, SSN: 1}, Receiver: 1, RSN: 1},
			Holders: holders,
		}},
	}
}

// rangeSet builds {lo..hi}.
func rangeSet(lo, hi int) bitset.Set {
	s := bitset.New(hi + 1)
	for i := lo; i <= hi; i++ {
		s.Add(i)
	}
	return s
}

// TestHolderEncodingBoundaries round-trips holder sets at every boundary of
// the encoding chooser, including word counts past what a u8 can carry
// (the v1 codec truncated those); each must survive encode→decode
// bit-exactly.
func TestHolderEncodingBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		holders bitset.Set
		wantTag uint8
	}{
		{"empty", bitset.Set{}, 0},
		{"one word", bitset.FromSlice([]int{0, 63}), 1},
		{"four words (dense-u8 cutoff)", bitset.FromSlice([]int{0, 255}), 4},
		{"five words, two elems", bitset.FromSlice([]int{0, 256}), holderTagSparse},
		{"n=1024 quorum (f+1 sparse)", bitset.FromSlice([]int{3, 500, 1024}), holderTagSparse},
		{"n=1024 full run", rangeSet(0, 1024), holderTagRuns},
		{"straddling run", rangeSet(60, 70), 2}, // two words: dense-u8 still smallest
		{"255-word boundary (v1 max)", bitset.FromSlice([]int{255*64 - 1}), holderTagSparse},
		{"256 words (v1 truncated)", bitset.FromSlice([]int{0, 256*64 - 1}), holderTagSparse},
		{"dense past u16 elements", func() bitset.Set {
			// Elements above 65535 rule out sparse and runs; only the
			// dense-u16 form can carry them.
			s := bitset.New(70_001)
			for i := 0; i <= 70_000; i += 2 {
				s.Add(i)
			}
			return s
		}(), holderTagDenseU16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tag, size, ok := holderEnc(c.holders)
			if !ok {
				t.Fatalf("holderEnc rejected the set")
			}
			if tag != c.wantTag {
				t.Errorf("chose tag %d, want %d", tag, c.wantTag)
			}
			e := detEnvelope(c.holders)
			frame := Encode(e)
			if len(frame) != Size(e) {
				t.Errorf("Size = %d, frame length = %d", Size(e), len(frame))
			}
			got, err := Decode(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !got.Dets[0].Holders.Equal(c.holders) {
				t.Fatalf("holders corrupted: sent %d elems, got %d",
					c.holders.Count(), got.Dets[0].Holders.Count())
			}
			// The chooser must never beat itself: the picked form's size is
			// the frame's det-holder block, tag byte included.
			base := len(Encode(detEnvelope(bitset.Set{}))) - 1
			if len(frame)-base != size {
				t.Errorf("holder block costs %d bytes, holderEnc predicted %d", len(frame)-base, size)
			}
		})
	}
}

// TestEncodeRangeErrors proves the codec refuses, with an explicit error,
// what does not fit its wire representation.
func TestEncodeRangeErrors(t *testing.T) {
	t.Run("holder set past u16 words", func(t *testing.T) {
		// 65536 backing words: no representation left.
		huge := bitset.FromSlice([]int{65536 * 64})
		if _, _, ok := holderEnc(huge); ok {
			t.Fatal("holderEnc accepted a 65537-word set")
		}
		if _, err := EncodeChecked(detEnvelope(huge)); !errors.Is(err, ErrRange) {
			t.Fatalf("EncodeChecked = %v, want ErrRange", err)
		}
		// Added to a list, the set is refused when the list is encoded.
		var l DetList
		l.Add(detEnvelope(huge).Dets[0])
		l.Add(detEnvelope(bitset.Set{}).Dets[0])
		if _, err := EncodeChecked(&Envelope{Kind: KindApp, DetList: &l}); !errors.Is(err, ErrRange) {
			t.Fatalf("EncodeChecked of a list = %v, want ErrRange", err)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("Encode must panic on an unencodable envelope")
			}
		}()
		Encode(detEnvelope(huge))
	})
	t.Run("oversized list", func(t *testing.T) {
		e := &Envelope{Kind: KindDepRequest, From: 0, To: 1, FromInc: 1,
			Members: make([]ids.ProcID, maxListLen+1)}
		if _, err := EncodeChecked(e); !errors.Is(err, ErrRange) {
			t.Fatalf("EncodeChecked = %v, want ErrRange", err)
		}
	})
}

// TestDecodeRejectsBadHolders hand-crafts v2 frames with invalid holder
// blocks; the decoder must fail cleanly rather than fabricate sets.
func TestDecodeRejectsBadHolders(t *testing.T) {
	// Frame skeleton up to the holder tag of a single det entry.
	skel := func() *Writer {
		w := NewWriter(64)
		w.U8(codecVersion)
		w.U8(uint8(KindApp))
		w.I32(0)       // from
		w.I32(1)       // to
		w.U32(1)       // inc
		w.U16(hasDets) // presence
		w.U32(1)       // one entry
		w.I32(0)       // sender
		w.U64(1)       // ssn
		w.I32(1)       // receiver
		w.U64(1)       // rsn
		return w
	}
	t.Run("reserved tag", func(t *testing.T) {
		w := skel()
		w.U8(254)
		if _, err := Decode(w.Frame()); !errors.Is(err, ErrBadHolders) {
			t.Fatalf("Decode = %v, want ErrBadHolders", err)
		}
	})
	t.Run("inverted run", func(t *testing.T) {
		w := skel()
		w.U8(holderTagRuns)
		w.U16(1)
		w.U16(10) // start
		w.U16(5)  // end < start
		if _, err := Decode(w.Frame()); !errors.Is(err, ErrBadHolders) {
			t.Fatalf("Decode = %v, want ErrBadHolders", err)
		}
	})
	t.Run("truncated sparse", func(t *testing.T) {
		w := skel()
		w.U8(holderTagSparse)
		w.U16(3)
		w.U16(7) // only one of three elements present
		if _, err := Decode(w.Frame()); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Decode = %v, want ErrTruncated", err)
		}
	})
}

// TestV2KeepsSmallFrameBytes pins the size rule the golden trace hashes
// rely on: frames whose holder sets span at most four words carry the
// current version byte and are exactly as long as Size says.
func TestV2KeepsSmallFrameBytes(t *testing.T) {
	for _, e := range sampleEnvelopes() {
		for i := range e.Dets {
			if len(e.Dets[i].Holders.Words()) > holderDenseU8Words {
				t.Fatalf("sample %v holder set too large for this pin", e.Kind)
			}
		}
		frame := Encode(e)
		if frame[0] != codecVersion {
			t.Fatalf("version byte = %d, want %d", frame[0], codecVersion)
		}
		if len(frame) != Size(e) {
			t.Fatalf("%v: Size = %d, frame = %d", e.Kind, Size(e), len(frame))
		}
	}
}
