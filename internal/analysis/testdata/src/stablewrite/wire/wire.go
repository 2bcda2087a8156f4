// Package wire exercises the stablewrite check against a miniature of the
// real codec: discarded Decode/Sync errors and readers whose Err/Done is
// never consulted are findings; checked, escaped, and suppressed uses stay
// quiet.
package wire

import "errors"

// ErrTruncated mirrors the codec's short-input error.
var ErrTruncated = errors.New("wire: truncated frame")

// Envelope is a decoded frame.
type Envelope struct {
	Seq uint32
}

// Reader is a sticky-error cursor over one frame.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader positions a Reader at the start of buf.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// NewImageReader is NewReader over a stored image with counted padding.
func NewImageReader(b []byte, pad int) *Reader { return &Reader{buf: b} }

// U32 decodes a big-endian uint32, or zero once the reader has failed.
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.err = ErrTruncated
		return 0
	}
	b := r.buf[r.off : r.off+4]
	r.off += 4
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Err reports the sticky decode error.
func (r *Reader) Err() error { return r.err }

// Done reports whether the frame was fully and cleanly consumed.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.buf) }

// Decode parses one envelope, consulting the reader as the check demands.
func Decode(data []byte) (*Envelope, error) {
	r := NewReader(data)
	seq := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &Envelope{Seq: seq}, nil
}

// Sync pretends to flush to stable storage.
func Sync() error { return nil }

func discardStmt(data []byte) {
	Decode(data) // want "error result of wire.Decode is discarded"
}

func discardBlank(data []byte) *Envelope {
	env, _ := Decode(data) // want "error result of wire.Decode is discarded"
	return env
}

func discardPaired() {
	_ = Sync() // want "error result of wire.Sync is discarded"
}

func discardDefer() {
	defer Sync() // want "error result of wire.Sync is discarded"
}

func checked(data []byte) (*Envelope, error) {
	env, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return env, nil
}

func chainedRead(data []byte) uint32 {
	return NewReader(data).U32() // want "value read from an unchecked wire.Reader"
}

func uncheckedVar(data []byte) uint32 {
	r := NewReader(data) // want "wire.Reader r is read but neither Err nor Done is ever consulted"
	return r.U32()
}

func uncheckedImageVar(data []byte) uint32 {
	r := NewImageReader(data, 0) // want "wire.Reader r is read but neither Err nor Done is ever consulted"
	return r.U32()
}

func checkedVar(data []byte) (uint32, error) {
	r := NewReader(data)
	v := r.U32()
	if err := r.Err(); err != nil {
		return 0, err
	}
	return v, nil
}

func doneVar(data []byte) (uint32, bool) {
	r := NewReader(data)
	v := r.U32()
	return v, r.Done()
}

// escaped hands the reader to a helper; custody transfers with it.
func escaped(data []byte) uint32 {
	r := NewReader(data)
	return drain(r)
}

func drain(r *Reader) uint32 {
	v := r.U32()
	if !r.Done() {
		return 0
	}
	return v
}

// suppressed demonstrates the allow path for a best-effort write.
func suppressed() {
	//rollvet:allow stablewrite -- fixture demonstrates the allow path
	Sync()
}
