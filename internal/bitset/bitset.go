package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

// wordBits is the number of elements each backing word covers.
const wordBits = 64

// Set is a growable bitset. The zero value is an empty set ready for use.
// Methods with a pointer receiver may grow the backing storage; read-only
// methods take value receivers and never allocate.
type Set struct {
	words []uint64
}

// New returns a set pre-sized to hold elements in [0, n).
func New(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice builds a set containing exactly the given elements. Negative
// elements are ignored.
func FromSlice(elems []int) Set {
	var s Set
	for _, e := range elems {
		if e >= 0 {
			s.Add(e)
		}
	}
	return s
}

// Add inserts element i (i must be >= 0; negative values are ignored).
func (s *Set) Add(i int) {
	if i < 0 {
		return
	}
	w := i / wordBits
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	s.words[w] |= 1 << uint(i%wordBits)
}

// Contains reports whether element i is in the set.
func (s Set) Contains(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Count returns the cardinality of the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// RunCount returns the number of maximal runs of consecutive set elements.
// A run starts at every set bit whose predecessor bit is clear; the count is
// computed word-at-a-time with a carry for runs that straddle word
// boundaries, so it never allocates. The wire codec uses it to decide when
// run-length encoding beats the sparse and dense holder representations.
func (s Set) RunCount() int {
	n := 0
	carry := uint64(0)
	for _, w := range s.words {
		n += bits.OnesCount64(w &^ (w<<1 | carry))
		carry = w >> 63
	}
	return n
}

// Union merges o into s in place and reports whether s changed.
func (s *Set) Union(o Set) bool {
	if len(s.words) < len(o.words) {
		grown := make([]uint64, len(o.words))
		copy(grown, s.words)
		s.words = grown
	}
	changed := false
	for i, w := range o.words {
		if s.words[i]|w != s.words[i] {
			s.words[i] |= w
			changed = true
		}
	}
	return changed
}

// Equal reports whether s and o contain exactly the same elements,
// regardless of backing capacity.
func (s Set) Equal(o Set) bool {
	long, short := s.words, o.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// Elems returns the elements in ascending order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Words returns the backing words with trailing zero words trimmed; used by
// the wire codec. The returned slice aliases the set and must not be
// modified.
func (s Set) Words() []uint64 {
	w := s.words
	for len(w) > 0 && w[len(w)-1] == 0 {
		w = w[:len(w)-1]
	}
	return w
}

// View returns a read-only set that aliases words instead of copying them,
// valid until the owner of words next writes them. The determinant log's
// scans, the piggyback scratch and the frame decoder hand out views into
// buffers they reuse; Clone keeps one.
func View(words []uint64) Set { return Set{words: words} }

// String renders the set as "{a,b,c}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Elems() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(e))
	}
	b.WriteByte('}')
	return b.String()
}
