// Package storage models stable storage: the crash-surviving store each
// process checkpoints to, with an explicit cost model for synchronous
// access.
//
// The paper's central argument is that the *latency of stable storage
// access* has become a first-order cost of recovery protocols; the cost
// model here (fixed per-operation latency plus size over bandwidth) is what
// the experiments sweep in D2.
package storage

import (
	"fmt"
	"time"
)

// Params is the stable-storage cost model.
type Params struct {
	// Latency is the fixed per-operation cost (seek + rotational delay +
	// controller overhead for a 1995 disk; write-ack round trip for a
	// replicated store).
	Latency time.Duration
	// ReadBandwidth and WriteBandwidth are sustained transfer rates in
	// bytes/second. Zero means infinitely fast transfer.
	ReadBandwidth  float64
	WriteBandwidth float64
}

// ReadTime returns the modeled duration of reading size bytes.
func (p Params) ReadTime(size int) time.Duration {
	return p.Latency + transfer(size, p.ReadBandwidth)
}

// WriteTime returns the modeled duration of writing size bytes.
func (p Params) WriteTime(size int) time.Duration {
	return p.Latency + transfer(size, p.WriteBandwidth)
}

// Scale returns a copy of the parameters with latency multiplied and
// bandwidth divided by factor; used by the storage-penalty sweep (D2).
func (p Params) Scale(factor float64) Params {
	s := p
	s.Latency = time.Duration(float64(p.Latency) * factor)
	if p.ReadBandwidth > 0 {
		s.ReadBandwidth = p.ReadBandwidth / factor
	}
	if p.WriteBandwidth > 0 {
		s.WriteBandwidth = p.WriteBandwidth / factor
	}
	return s
}

func transfer(size int, bw float64) time.Duration {
	if bw <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / bw * float64(time.Second))
}

// Disk1995 models a workstation disk of the paper's era: ~14 ms average
// access, ~2 MB/s sustained transfer. Restoring the paper's ~1 MB process
// state therefore takes roughly half a second, and the paper's observation
// that restoring state may take "tens of seconds or a few minutes" for
// large processes follows directly.
func Disk1995() Params {
	return Params{
		Latency:        14 * time.Millisecond,
		ReadBandwidth:  2.0e6,
		WriteBandwidth: 1.6e6,
	}
}

// Image is one stable-storage value. The paper's ~1 MB process images are
// almost entirely state this simulator models but never reads, so an image
// is the bytes its codec wrote plus a count of modelled zero bytes: Pad is
// charged by every size the cost model consumes and never allocated, and
// never negative. An image may hold many runs of padding, its own and its
// logged payloads'; where they sit is the codec's business (wire.Writer.Pad
// and ImageBytes write them, a wire.Reader claims them), not the store's.
type Image struct {
	Data []byte
	Pad  int
}

// Size is the image's logical length in bytes, padding included: what a
// disk would transfer.
func (im Image) Size() int { return len(im.Data) + im.Pad }

// Store is a crash-surviving key-value store for one process. It survives
// crashes because the runtime owns it across process reincarnations; only
// the process image is volatile. Store is not safe for concurrent use.
type Store struct {
	data map[string]Image
}

// NewStore returns an empty stable store.
func NewStore() *Store {
	return &Store{data: make(map[string]Image)}
}

// Reset empties the store, keeping the map's buckets for the next run.
func (s *Store) Reset() { clear(s.data) }

// Put durably records img under key, replacing any previous value. It
// takes ownership of img.Data: the store keeps the slice itself, the one
// resident copy of an image, and writing to it afterwards is a caller bug.
func (s *Store) Put(key string, img Image) {
	s.data[key] = img
}

// Get returns the image stored under key with a copy of its Data, the
// caller's to mutate.
func (s *Store) Get(key string) (Image, bool) {
	v, ok := s.data[key]
	if !ok {
		return Image{}, false
	}
	v.Data = append([]byte(nil), v.Data...)
	return v, true
}

// Size returns the logical size of key's image, or 0.
func (s *Store) Size(key string) int { return s.data[key].Size() }

// Len returns the number of stored keys.
func (s *Store) Len() int { return len(s.data) }

// Bytes returns the total logical size of the stored images: the
// stable-storage footprint gauge the timeline sampler reads.
func (s *Store) Bytes() int64 {
	var total int64
	for _, v := range s.data {
		total += int64(v.Size())
	}
	return total
}

// Resident returns the bytes the stored images hold: Bytes less the padding.
func (s *Store) Resident() int64 {
	var total int64
	for _, v := range s.data {
		total += int64(len(v.Data))
	}
	return total
}

// String summarizes the store contents for traces.
func (s *Store) String() string {
	return fmt.Sprintf("store{keys=%d bytes=%d}", len(s.data), s.Bytes())
}
