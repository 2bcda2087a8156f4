package trace

import (
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// Log-bucketed histogram geometry: 16 sub-buckets per power of two gives a
// worst-case relative error of 1/16 ≈ 6% per recorded value, HDR-histogram
// style, over the full int64 nanosecond range.
const (
	histSubBits = 4
	histSubCnt  = 1 << histSubBits
	// 16 exact buckets for values < 16, then 16 sub-buckets per octave up
	// to the top int64 octave (exponent 62): 960 buckets, ~7.5 KB.
	histBuckets = (62-histSubBits)*histSubCnt + histSubCnt + histSubCnt
)

// Histogram is a log-bucketed latency histogram. The zero value is ready to
// use and holds no buckets: the bucket array spans the octaves between the
// lowest and the highest observed (a process that never blocks pays nothing
// for its blocked-time histogram, one whose latencies are all milliseconds
// nothing for the microseconds), so Record allocates only when an observation
// lands in an octave outside every earlier one and the array, or the one a
// Reset kept, cannot hold the span. A plain copy shares the buckets with its
// original, so a snapshot of a histogram that keeps recording is taken with
// Clone. It is not safe for concurrent use (the runtimes serialize
// per-process metrics; aggregate with Merge).
type Histogram struct {
	counts []int64 // buckets base .. base+len-1 of the histBuckets; whole octaves
	base   int     // bucket index of counts[0], a multiple of histSubCnt
	n      int64
	sum    int64
	min    int64
	max    int64
}

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < histSubCnt {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= histSubBits
	sub := int(uint64(v)>>(uint(exp)-histSubBits)) & (histSubCnt - 1)
	return (exp-histSubBits)*histSubCnt + histSubCnt + sub
}

// bucketLow returns the smallest value mapping to bucket idx.
func bucketLow(idx int) int64 {
	if idx < histSubCnt {
		return int64(idx)
	}
	exp := (idx-histSubCnt)/histSubCnt + histSubBits
	sub := int64(idx & (histSubCnt - 1))
	return (int64(histSubCnt) + sub) << (uint(exp) - histSubBits)
}

// cover extends the bucket array, downward or upward, to include buckets lo
// through hi, in whole octaves: a distribution's extremes creep by sub-buckets
// far more often than by powers of two.
func (h *Histogram) cover(lo, hi int) {
	lo, hi = lo&^(histSubCnt-1), hi|(histSubCnt-1)
	if len(h.counts) == 0 {
		h.base = lo
	}
	lo, hi = min(lo, h.base), max(hi, h.base+len(h.counts)-1)
	if hi-lo+1 == len(h.counts) {
		return
	}
	if hi-lo+1 > cap(h.counts) {
		counts := make([]int64, hi-lo+1)
		copy(counts[h.base-lo:], h.counts)
		h.counts, h.base = counts, lo
		return
	}
	// The array a Reset kept holds the new span: move the counts up to their
	// new offset (copy allows the overlap) and zero the rest.
	old, at := len(h.counts), h.base-lo
	h.counts, h.base = h.counts[:hi-lo+1], lo
	copy(h.counts[at:], h.counts[:old])
	clear(h.counts[:at])
	clear(h.counts[at+old:])
}

// Reset empties the histogram and keeps its bucket array, which the next
// observations reuse: it then reads, and grows, as a zero Histogram does.
func (h *Histogram) Reset() { *h = Histogram{counts: h.counts[:0]} }

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if uint(b-h.base) >= uint(len(h.counts)) {
		h.cover(b, b)
	}
	h.counts[b-h.base]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Clone returns an independent copy: later Records into h do not reach it.
func (h *Histogram) Clone() Histogram {
	c := *h
	c.counts = slices.Clone(h.counts)
	return c
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Total returns the sum of all observations.
func (h *Histogram) Total() time.Duration { return time.Duration(h.sum) }

// Max returns the largest observation (exact, not bucketed).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Min returns the smallest observation (exact, not bucketed).
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }

// Quantile returns the q-quantile (0..1) to bucket resolution, clamped to
// the exact observed extremes.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := int64(q*float64(h.n-1)) + 1
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketLow(h.base + i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	h.cover(other.base, other.base+len(other.counts)-1)
	for i, c := range other.counts {
		h.counts[other.base-h.base+i] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// Delta returns the histogram of observations recorded in h but not in
// prev, assuming prev is an earlier snapshot (a Clone, or a histogram no
// longer recorded into) of the same accumulating histogram (bucket counts
// monotonically non-decreasing). Min and max of
// the window are approximated to bucket resolution — the exact extremes of
// only the new observations are not recoverable from two cumulative
// snapshots. Buckets where prev exceeds h (a misuse) clamp to zero.
func (h *Histogram) Delta(prev *Histogram) Histogram {
	d := Histogram{counts: make([]int64, len(h.counts)), base: h.base}
	for i, c := range h.counts {
		if j := h.base + i - prev.base; j >= 0 && j < len(prev.counts) {
			c -= prev.counts[j]
		}
		if c <= 0 {
			continue
		}
		low := bucketLow(h.base + i)
		d.counts[i] = c
		d.n += c
		d.sum += c * low
		if d.min == 0 && d.n == c { // first populated bucket
			d.min = low
		}
		d.max = low
	}
	return d
}

// String summarizes the distribution for logs and tables.
func (h *Histogram) String() string {
	if h.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v max=%v",
		h.n, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}
