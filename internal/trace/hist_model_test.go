package trace

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// denseHist is the reference Histogram is checked against: every one of the
// histBuckets buckets, always — the layout the type had before it kept only
// the octaves between its extremes — with the same arithmetic.
type denseHist struct {
	counts           [histBuckets]int64
	n, sum, min, max int64
}

func (h *denseHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

func (h *denseHist) merge(o *denseHist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *denseHist) delta(prev *denseHist) *denseHist {
	d := new(denseHist)
	for i, c := range h.counts {
		c -= prev.counts[i]
		if c <= 0 {
			continue
		}
		d.counts[i] = c
		d.n += c
		d.sum += c * bucketLow(i)
		if d.min == 0 && d.n == c {
			d.min = bucketLow(i)
		}
		d.max = bucketLow(i)
	}
	return d
}

func (h *denseHist) quantileAt(q float64) int64 {
	switch {
	case h.n == 0:
		return 0
	case q <= 0:
		return h.min
	case q >= 1:
		return h.max
	}
	rank := int64(q*float64(h.n-1)) + 1
	var cum int64
	for i, c := range h.counts {
		if cum += c; cum >= rank {
			return min(max(bucketLow(i), h.min), h.max)
		}
	}
	return h.max
}

var modelQuantiles = []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

// agree compares everything a caller can read off a histogram.
func agree(t *testing.T, what string, got *Histogram, want *denseHist) {
	t.Helper()
	if got.Count() != want.n || int64(got.Total()) != want.sum || int64(got.Min()) != want.min || int64(got.Max()) != want.max {
		t.Fatalf("%s: n/sum/min/max = %d/%d/%d/%d, dense reference %d/%d/%d/%d",
			what, got.Count(), got.Total(), got.Min(), got.Max(), want.n, want.sum, want.min, want.max)
	}
	for _, q := range modelQuantiles {
		if g, w := int64(got.Quantile(q)), want.quantileAt(q); g != w {
			t.Fatalf("%s: Quantile(%v) = %d, dense reference %d", what, q, g, w)
		}
	}
	if len(got.counts)%histSubCnt != 0 || got.base%histSubCnt != 0 || got.base+len(got.counts) > histBuckets {
		t.Fatalf("%s: buckets [%d, %d) are not whole octaves of the %d", what, got.base, got.base+len(got.counts), histBuckets)
	}
}

// TestHistogramAgreesWithDenseReference drives a few histograms and their
// dense twins through seeded random Record / Merge / Clone / Delta sequences.
// Values are 0, below 16 (the exact buckets), and nanoseconds to hours; each
// histogram also gets runs of strictly descending magnitudes, which only a
// histogram that grows downward survives, and snapshots are taken while the
// range is still narrow so Delta sees a prev whose base is above the current
// one.
func TestHistogramAgreesWithDenseReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const k = 4
		var (
			real, snap   [k]Histogram
			dense, dsnap [k]denseHist
			grewDown     bool
		)
		value := func() int64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return rng.Int63n(histSubCnt)
			case 2:
				return -rng.Int63n(1000) // clamps to zero
			default:
				return rng.Int63n(int64(1) << (4 + rng.Intn(40))) // up to ~4.9 h
			}
		}
		rec := func(i int, v int64) {
			base := real[i].base
			real[i].Record(time.Duration(v))
			dense[i].record(v)
			grewDown = grewDown || (real[i].Count() > 1 && real[i].base < base)
		}
		for step := 0; step < 400; step++ {
			i, j := rng.Intn(k), rng.Intn(k)
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 5:
				rec(i, value())
			case op == 5: // a descending run: hours down to nanoseconds
				for e := 43; e >= 0; e -= 1 + rng.Intn(6) {
					rec(i, int64(1)<<e+rng.Int63n(int64(1)<<e))
				}
			case op == 6:
				real[i].Merge(&real[j])
				dense[i].merge(&dense[j])
			case op == 7: // j becomes a copy of i, and so does its snapshot
				real[j], dense[j] = real[i].Clone(), dense[i]
				snap[j], dsnap[j] = real[i].Clone(), dense[i]
			case op == 8:
				snap[i], dsnap[i] = real[i].Clone(), dense[i]
			default:
				d := real[i].Delta(&snap[i])
				agree(t, what+" delta", &d, dense[i].delta(&dsnap[i]))
			}
			agree(t, what, &real[i], &dense[i])
			agree(t, what+" snapshot", &snap[i], &dsnap[i]) // a Clone does not see later Records
		}
		if !grewDown {
			t.Fatalf("seed %d: no histogram ever grew downward", seed)
		}
	}
}

// TestHistogramHoldsTheOctavesItSaw is the size gate: millisecond latencies
// cost three octaves of buckets, not the nineteen below them as well.
func TestHistogramHoldsTheOctavesItSaw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	for i := 0; i < 10000; i++ {
		h.Record(time.Millisecond + time.Duration(rng.Int63n(int64(3*time.Millisecond))))
	}
	if len(h.counts) > 3*histSubCnt {
		t.Fatalf("10000 records in [1ms, 4ms) hold %d buckets, want <= %d", len(h.counts), 3*histSubCnt)
	}
	var idle Histogram
	if idle.Record(0); len(idle.counts) != histSubCnt {
		t.Fatalf("one zero holds %d buckets, want %d", len(idle.counts), histSubCnt)
	}
}

// TestHistogramMergeAcrossOctaves merges a histogram of small values into one
// of large values and the reverse: the receiver grows towards the other.
func TestHistogramMergeAcrossOctaves(t *testing.T) {
	fill := func(lo time.Duration) (h Histogram, d denseHist) {
		for i := 0; i < 100; i++ {
			v := lo + time.Duration(i)*lo/50
			h.Record(v)
			d.record(int64(v))
		}
		return h, d
	}
	lowH, lowD := fill(3 * time.Microsecond)
	highH, highD := fill(2 * time.Second)

	into, intoD := highH.Clone(), highD
	into.Merge(&lowH)
	intoD.merge(&lowD)
	agree(t, "low into high", &into, &intoD)
	if into.base != lowH.base {
		t.Fatalf("low into high: base %d, want the low histogram's %d", into.base, lowH.base)
	}

	rev, revD := lowH.Clone(), lowD
	rev.Merge(&highH)
	revD.merge(&highD)
	agree(t, "high into low", &rev, &revD)
	if rev.Quantile(0.5) != into.Quantile(0.5) || len(rev.counts) != len(into.counts) {
		t.Fatalf("merge order shows: p50 %v vs %v, %d vs %d buckets", rev.Quantile(0.5), into.Quantile(0.5), len(rev.counts), len(into.counts))
	}
	agree(t, "merged-from histogram", &lowH, &lowD) // Merge reads its argument
	agree(t, "merged-from histogram", &highH, &highD)
}
