package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
)

// codecVersion is bumped on any incompatible format change. Frames never
// outlive the process that encoded them, so Decode accepts exactly this
// version. v2 is the tagged holder-set encodings below plus the CPDseq and
// Members envelope fields.
const codecVersion = 2

// maxListLen bounds every decoded list length to catch corrupted frames
// before they trigger huge allocations. Encode enforces the same bound, so
// an encodable frame is always decodable.
const maxListLen = 1 << 22

// Sentinel decoding errors.
var (
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrBadVersion = errors.New("wire: unknown codec version")
	ErrBadKind    = errors.New("wire: unknown envelope kind")
	ErrOversized  = errors.New("wire: list length exceeds limit")
	ErrBadHolders = errors.New("wire: bad holder-set encoding")
	ErrPad        = errors.New("wire: padding field does not match the image")
	// ErrRange is returned by EncodeChecked when a count or id does not fit
	// its wire representation.
	ErrRange = errors.New("wire: value out of encodable range")
)

// Holder-set encoding tags. A tag byte of 0..250 IS the dense word count,
// and the encoder emits it whenever the set spans at most
// holderDenseU8Words words (every set at n <= 256). Larger sets use one of
// the tagged forms below, whichever encodes smallest.
const (
	holderTagDenseU8Max = 250 // tags 0..250: word count, dense words follow
	holderTagSparse     = 251 // u16 element count, ascending u16 elements
	holderTagRuns       = 252 // u16 run count, (u16 start, u16 end) inclusive pairs
	holderTagDenseU16   = 253 // u16 word count, dense words follow
	holderDenseU8Words  = 4   // dense-u8 cutoff
)

// Presence bits: only non-empty optional fields are written, keeping the
// common heartbeat/app frames small.
const (
	hasPayload = 1 << iota
	hasDets
	hasCPRsn
	hasSSNWatermarks
	hasOrd
	hasRound
	hasIncVec
	hasMsgIDs
	hasSSN
	hasDseq
	hasCPDseq  // v2
	hasMembers // v2
)

// Writer is a little-endian append-only frame builder shared by the envelope
// codec and the checkpoint codec. The zero value is ready to use.
type Writer struct {
	buf []byte
	pad int
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer { return &Writer{buf: make([]byte, 0, capacity)} }

// Frame returns the accumulated bytes.
func (w *Writer) Frame() []byte { return w.buf }

// Padded returns the number of modelled zero bytes Pad has counted: with
// Frame, the two halves of a storage.Image.
func (w *Writer) Padded() int { return w.pad }

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I32(v int32)  { w.U32(uint32(v)) }
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Pad stands for what Bytes(make([]byte, n)) would write: the length field
// goes into the frame, the n zeros are only counted (see Padded). An image
// has one run of padding — its Reader.Pad must find the whole count in one
// field — so a second non-empty Pad is a codec bug and panics.
func (w *Writer) Pad(n int) {
	if w.pad != 0 && n != 0 {
		panic("wire: second Pad in one image")
	}
	w.U32(uint32(n))
	w.pad += n
}

// Reader is the matching cursor-based frame parser. Errors are sticky: after
// the first failure every subsequent read returns zero values and Err()
// reports the cause.
type Reader struct {
	buf    []byte
	off    int
	pad    int // modelled zeros of the image no Pad field has claimed yet
	padded int // ... and those one has
	err    error
}

// NewReader returns a reader over the given frame.
func NewReader(frame []byte) *Reader { return &Reader{buf: frame} }

// NewImageReader returns a reader over a stored image: the bytes a Writer
// framed plus the count of zeros its Pad calls stood for.
func NewImageReader(data []byte, pad int) *Reader { return &Reader{buf: data, pad: pad} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Done reports whether the whole frame, padding included, was consumed
// without error.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.buf) && r.pad == 0 }

// Pos returns the logical offset of the cursor: bytes read plus padding
// skipped.
func (r *Reader) Pos() int { return r.off + r.padded }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return false
	}
	return true
}

func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *Reader) I32() int32 { return int32(r.U32()) }

func (r *Reader) ListLen() int {
	n := r.U32()
	if n > maxListLen {
		r.fail(ErrOversized)
		return 0
	}
	return int(n)
}

func (r *Reader) Bytes() []byte {
	n := r.ListLen()
	if n == 0 || !r.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out
}

// Pad consumes a field written by Writer.Pad. The field must claim exactly
// the image's padding: a count one short or one long is what a truncated or
// overlong run of zeros was when they were bytes.
func (r *Reader) Pad() {
	n := r.ListLen()
	if r.err != nil {
		return
	}
	if n != r.pad {
		r.fail(ErrPad)
		return
	}
	r.padded += n
	r.pad = 0
}

func presence(e *Envelope) uint16 {
	var p uint16
	if len(e.Payload) > 0 {
		p |= hasPayload
	}
	if len(e.Dets) > 0 {
		p |= hasDets
	}
	if e.CPRsn != 0 {
		p |= hasCPRsn
	}
	if len(e.SSNWatermarks) > 0 {
		p |= hasSSNWatermarks
	}
	if !e.Ord.IsZero() {
		p |= hasOrd
	}
	if e.Round != 0 {
		p |= hasRound
	}
	if len(e.IncVec) > 0 {
		p |= hasIncVec
	}
	if len(e.MsgIDs) > 0 {
		p |= hasMsgIDs
	}
	if e.SSN != 0 {
		p |= hasSSN
	}
	if e.Dseq != 0 {
		p |= hasDseq
	}
	if e.CPDseq != 0 {
		p |= hasCPDseq
	}
	if len(e.Members) > 0 {
		p |= hasMembers
	}
	return p
}

// checkLen guards every encoded list against the decoder's bound so an
// encodable frame is always decodable.
func checkLen(what string, n int) error {
	if n > maxListLen {
		return fmt.Errorf("%w: %s length %d exceeds %d", ErrRange, what, n, maxListLen)
	}
	return nil
}

// Encode serializes the envelope to a self-contained frame. Inside the
// simulator every envelope is encodable by construction (list lengths and
// holder universes are bounded by the cluster size), so an encoding error
// is an invariant violation and panics; external callers that handle
// untrusted or generated envelopes should use EncodeChecked.
func Encode(e *Envelope) []byte {
	frame, err := EncodeChecked(e)
	if err != nil {
		panic(fmt.Sprintf("wire: unencodable envelope: %v", err))
	}
	return frame
}

// EncodeChecked serializes the envelope, returning an error (wrapping
// ErrRange) instead of truncating when a count or holder set exceeds its
// wire representation. The frame is allocated once, at exactly Size(e).
func EncodeChecked(e *Envelope) ([]byte, error) {
	w := &Writer{buf: make([]byte, 0, Size(e))}
	w.U8(codecVersion)
	w.U8(uint8(e.Kind))
	w.I32(int32(e.From))
	w.I32(int32(e.To))
	w.U32(uint32(e.FromInc))
	p := presence(e)
	w.U16(p)
	if p&hasSSN != 0 {
		w.U64(uint64(e.SSN))
	}
	if p&hasDseq != 0 {
		w.U64(e.Dseq)
	}
	if p&hasPayload != 0 {
		if err := checkLen("payload", len(e.Payload)); err != nil {
			return nil, err
		}
		w.Bytes(e.Payload)
	}
	if p&hasDets != 0 {
		if err := checkLen("dets", len(e.Dets)); err != nil {
			return nil, err
		}
		w.U32(uint32(len(e.Dets)))
		for i := range e.Dets {
			if err := encodeEntry(w, &e.Dets[i]); err != nil {
				return nil, err
			}
		}
	}
	if p&hasCPRsn != 0 {
		w.U64(uint64(e.CPRsn))
	}
	if p&hasSSNWatermarks != 0 {
		if err := checkLen("ssn-watermarks", len(e.SSNWatermarks)); err != nil {
			return nil, err
		}
		w.U32(uint32(len(e.SSNWatermarks)))
		for _, s := range e.SSNWatermarks {
			w.U64(uint64(s))
		}
	}
	if p&hasOrd != 0 {
		w.U64(e.Ord.Clock)
		w.I32(int32(e.Ord.Proc))
	}
	if p&hasRound != 0 {
		w.U32(e.Round)
	}
	if p&hasIncVec != 0 {
		if err := checkLen("incvec", len(e.IncVec)); err != nil {
			return nil, err
		}
		w.U32(uint32(len(e.IncVec)))
		for _, inc := range e.IncVec {
			w.U32(uint32(inc))
		}
	}
	if p&hasMsgIDs != 0 {
		if err := checkLen("msgids", len(e.MsgIDs)); err != nil {
			return nil, err
		}
		w.U32(uint32(len(e.MsgIDs)))
		for _, id := range e.MsgIDs {
			w.I32(int32(id.Sender))
			w.U64(uint64(id.SSN))
		}
	}
	if p&hasCPDseq != 0 {
		w.U64(e.CPDseq)
	}
	if p&hasMembers != 0 {
		if err := checkLen("members", len(e.Members)); err != nil {
			return nil, err
		}
		w.U32(uint32(len(e.Members)))
		for _, m := range e.Members {
			w.I32(int32(m))
		}
	}
	return w.buf, nil
}

func encodeEntry(w *Writer, e *det.Entry) error {
	w.I32(int32(e.Det.Msg.Sender))
	w.U64(uint64(e.Det.Msg.SSN))
	w.I32(int32(e.Det.Receiver))
	w.U64(uint64(e.Det.RSN))
	return encodeHolders(w, e.Holders)
}

// holderEnc picks the cheapest valid encoding for a holder set and
// returns its tag plus the full encoded size (tag byte included); ok is
// false when the set fits no representation (more than 65535 backing
// words). Sets of at most holderDenseU8Words words always take the
// dense-u8 form. Size() relies on this function to stay in
// lockstep with encodeHolders, and it runs per piggybacked determinant on
// the send path, so it must not allocate.
//
//rollvet:hotpath
func holderEnc(s bitset.Set) (tag uint8, size int, ok bool) {
	words := s.Words()
	nw := len(words)
	if nw <= holderDenseU8Words {
		return uint8(nw), 1 + 8*nw, true
	}
	tag, size = 0, -1
	if nw <= 0xFFFF {
		tag, size = holderTagDenseU16, 3+8*nw
	}
	maxElem := nw*64 - 1 - bits.LeadingZeros64(words[nw-1])
	if maxElem <= 0xFFFF {
		if runs := s.RunCount(); size < 0 || 3+4*runs < size {
			tag, size = holderTagRuns, 3+4*runs
		}
		if count := s.Count(); count <= 0xFFFF && (size < 0 || 3+2*count <= size) {
			tag, size = holderTagSparse, 3+2*count
		}
	}
	if size < 0 {
		return 0, 0, false
	}
	return tag, size, true
}

func encodeHolders(w *Writer, s bitset.Set) error {
	tag, _, ok := holderEnc(s)
	if !ok {
		return fmt.Errorf("%w: holder set spans %d words", ErrRange, len(s.Words()))
	}
	w.U8(tag)
	words := s.Words()
	switch {
	case tag <= holderTagDenseU8Max:
		for _, word := range words {
			w.U64(word)
		}
	case tag == holderTagSparse:
		w.U16(uint16(s.Count()))
		for wi, word := range words {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				w.U16(uint16(wi*64 + b))
				word &= word - 1
			}
		}
	case tag == holderTagRuns:
		w.U16(uint16(s.RunCount()))
		start, prev := -1, -2
		for wi, word := range words {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				e := wi*64 + b
				if e != prev+1 {
					if start >= 0 {
						w.U16(uint16(start))
						w.U16(uint16(prev))
					}
					start = e
				}
				prev = e
				word &= word - 1
			}
		}
		if start >= 0 {
			w.U16(uint16(start))
			w.U16(uint16(prev))
		}
	case tag == holderTagDenseU16:
		w.U16(uint16(len(words)))
		for _, word := range words {
			w.U64(word)
		}
	}
	return nil
}

// Decoder decodes frames into envelopes whose Dets — the entries and their
// holder sets — live in buffers the decoder owns and overwrites on the next
// Decode: a long-lived decoder (the simulator keeps one per kernel) decodes a
// piggyback without allocating per determinant. Whoever must keep the
// envelope past that point calls Envelope.Keep, which copies them out. The
// zero value is ready to use.
type Decoder struct {
	dets  []det.Entry
	words []uint64 // holder-word arena the Dets' holder sets are views into
}

// holderWords carves nw words off the arena. When the current block is full
// a larger one replaces it; views into the old block stay valid, it is just
// not reused. The first block is sized by what the frame asks for, not for
// the widest frame there could be: a fanout-mode piggyback is a few
// determinants of a few words, and the block doubles if that was too small.
func (d *Decoder) holderWords(nw int) []uint64 {
	if len(d.words)+nw > cap(d.words) {
		d.words = make([]uint64, 0, max(2*cap(d.words), nw, 8))
	}
	d.words = d.words[:len(d.words)+nw]
	return d.words[len(d.words)-nw:]
}

func (d *Decoder) readHolderWords(r *Reader, nw int) bitset.Set {
	// Check the words are actually present before claiming arena space: a
	// corrupted word count must not provoke a large allocation from a tiny
	// frame.
	if nw == 0 || !r.need(8*nw) {
		return bitset.Set{}
	}
	words := d.holderWords(nw)
	for i := range words {
		words[i] = r.U64()
	}
	return bitset.View(words)
}

// holderSpan returns a zeroed arena set wide enough for element maxElem.
func (d *Decoder) holderSpan(maxElem int) bitset.Set {
	words := d.holderWords(maxElem/64 + 1)
	clear(words)
	return bitset.View(words)
}

func (d *Decoder) decodeHolders(r *Reader) bitset.Set {
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
		base := r.off
		for i := 0; i < n; i++ {
			if e := int(binary.LittleEndian.Uint16(r.buf[base+2*i:])); e > maxElem {
				maxElem = e
			}
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
		base := r.off
		maxEnd, total := 0, 0
		for i := 0; i < n; i++ {
			start := int(binary.LittleEndian.Uint16(r.buf[base+4*i:]))
			end := int(binary.LittleEndian.Uint16(r.buf[base+4*i+2:]))
			if end < start {
				r.fail(fmt.Errorf("%w: run [%d,%d]", ErrBadHolders, start, end))
				return bitset.Set{}
			}
			total += end - start + 1
			// u16 runs can cover at most 65536 distinct elements; a larger
			// total means overlapping runs, which the encoder never emits
			// and which would let a ~30-byte frame demand millions of set
			// inserts (a decode-side amplification attack the fuzzer found).
			if total > 1<<16 {
				r.fail(fmt.Errorf("%w: runs expand to %d elements", ErrBadHolders, total))
				return bitset.Set{}
			}
			if end > maxEnd {
				maxEnd = end
			}
		}
		s := d.holderSpan(maxEnd)
		for i := 0; i < n; i++ {
			start := int(r.U16())
			end := int(r.U16())
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

func (d *Decoder) decodeEntry(r *Reader) det.Entry {
	var e det.Entry
	e.Det.Msg.Sender = ids.ProcID(r.I32())
	e.Det.Msg.SSN = ids.SSN(r.U64())
	e.Det.Receiver = ids.ProcID(r.I32())
	e.Det.RSN = ids.RSN(r.U64())
	e.Holders = d.decodeHolders(r)
	return e
}

// Decode parses a frame produced by Encode into a fresh envelope.
func Decode(frame []byte) (*Envelope, error) {
	e := new(Envelope)
	if err := new(Decoder).Decode(e, frame); err != nil {
		return nil, err
	}
	return e, nil
}

// DecodeInto is Decode into a caller-owned envelope. *e is overwritten
// whole; its slices are allocated per frame and alias neither the frame nor
// an earlier decode, so they (and a copy of the struct) stay valid after e
// is decoded into again. On error *e is unspecified. A runtime that delivers
// frame after frame decodes through one Decoder instead, and then e.Dets do
// not outlive the next decode.
func DecodeInto(e *Envelope, frame []byte) error {
	return new(Decoder).Decode(e, frame)
}

// Decode is DecodeInto except for who owns e.Dets: the entries and their
// holder sets sit in the decoder's buffers and are valid until its next
// Decode — for a handler, until it returns — unless kept (Envelope.Keep
// copies them out). The other slices are allocated per frame.
func (d *Decoder) Decode(e *Envelope, frame []byte) error {
	d.dets, d.words = d.dets[:0], d.words[:0]
	r := &Reader{buf: frame}
	if v := r.U8(); r.err == nil && v != codecVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	kind := Kind(r.U8())
	if r.err == nil && (kind == 0 || kind >= kindMax) {
		return fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
	*e = Envelope{Kind: kind}
	e.From = ids.ProcID(r.I32())
	e.To = ids.ProcID(r.I32())
	e.FromInc = ids.Incarnation(r.U32())
	p := r.U16()
	if p&hasSSN != 0 {
		e.SSN = ids.SSN(r.U64())
	}
	if p&hasDseq != 0 {
		e.Dseq = r.U64()
	}
	if p&hasPayload != 0 {
		e.Payload = r.Bytes()
	}
	if p&hasDets != 0 {
		n := r.ListLen()
		if r.err == nil && n > 0 {
			if cap(d.dets) < min(n, 4096) {
				d.dets = make([]det.Entry, 0, min(n, 4096))
			}
			for i := 0; i < n && r.err == nil; i++ {
				d.dets = append(d.dets, d.decodeEntry(r))
			}
			e.Dets = d.dets
		}
	}
	if p&hasCPRsn != 0 {
		e.CPRsn = ids.RSN(r.U64())
	}
	if p&hasSSNWatermarks != 0 {
		n := r.ListLen()
		if r.err == nil && n > 0 {
			e.SSNWatermarks = make([]ids.SSN, 0, min(n, 4096))
			for i := 0; i < n && r.err == nil; i++ {
				e.SSNWatermarks = append(e.SSNWatermarks, ids.SSN(r.U64()))
			}
		}
	}
	if p&hasOrd != 0 {
		e.Ord.Clock = r.U64()
		e.Ord.Proc = ids.ProcID(r.I32())
	}
	if p&hasRound != 0 {
		e.Round = r.U32()
	}
	if p&hasIncVec != 0 {
		n := r.ListLen()
		if r.err == nil && n > 0 {
			e.IncVec = make([]ids.Incarnation, 0, min(n, 4096))
			for i := 0; i < n && r.err == nil; i++ {
				e.IncVec = append(e.IncVec, ids.Incarnation(r.U32()))
			}
		}
	}
	if p&hasMsgIDs != 0 {
		n := r.ListLen()
		if r.err == nil && n > 0 {
			e.MsgIDs = make([]ids.MsgID, 0, min(n, 4096))
			for i := 0; i < n && r.err == nil; i++ {
				var id ids.MsgID
				id.Sender = ids.ProcID(r.I32())
				id.SSN = ids.SSN(r.U64())
				e.MsgIDs = append(e.MsgIDs, id)
			}
		}
	}
	if p&hasCPDseq != 0 {
		e.CPDseq = r.U64()
	}
	if p&hasMembers != 0 {
		n := r.ListLen()
		if r.err == nil && n > 0 {
			e.Members = make([]ids.ProcID, 0, min(n, 4096))
			for i := 0; i < n && r.err == nil; i++ {
				e.Members = append(e.Members, ids.ProcID(r.I32()))
			}
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(frame) {
		return fmt.Errorf("wire: %d trailing bytes", len(frame)-r.off)
	}
	return nil
}

// Size returns the encoded length of the envelope without allocating the
// frame; the network model charges bandwidth by this number. It is kept in
// lockstep with Encode by tests.
//
//rollvet:hotpath
func Size(e *Envelope) int {
	n := 1 + 1 + 4 + 4 + 4 + 2 // version, kind, from, to, inc, presence
	p := presence(e)
	if p&hasSSN != 0 {
		n += 8
	}
	if p&hasDseq != 0 {
		n += 8
	}
	if p&hasPayload != 0 {
		n += 4 + len(e.Payload)
	}
	if p&hasDets != 0 {
		n += 4
		for i := range e.Dets {
			_, hn, _ := holderEnc(e.Dets[i].Holders)
			n += 4 + 8 + 4 + 8 + hn
		}
	}
	if p&hasCPRsn != 0 {
		n += 8
	}
	if p&hasSSNWatermarks != 0 {
		n += 4 + 8*len(e.SSNWatermarks)
	}
	if p&hasOrd != 0 {
		n += 12
	}
	if p&hasRound != 0 {
		n += 4
	}
	if p&hasIncVec != 0 {
		n += 4 + 4*len(e.IncVec)
	}
	if p&hasMsgIDs != 0 {
		n += 4 + 12*len(e.MsgIDs)
	}
	if p&hasCPDseq != 0 {
		n += 8
	}
	if p&hasMembers != 0 {
		n += 4 + 4*len(e.Members)
	}
	return n
}
