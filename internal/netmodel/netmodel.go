package netmodel

import (
	"time"

	"rollrec/internal/ids"
)

// Params is the link cost model, identical for every link in the cluster.
type Params struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) component per frame. FIFO order per
	// link is preserved regardless.
	Jitter time.Duration
	// Bandwidth is the link transmission rate in bytes/second; zero means
	// infinitely fast transmission.
	Bandwidth float64
	// DropRate drops a frame with this probability (0..1). The protocol
	// family assumes reliable channels; this knob exists for the failure-
	// injection tests that verify the assumption is load-bearing.
	DropRate float64
}

// TransmitTime returns the serialization delay of a frame of size bytes.
func (p Params) TransmitTime(size int) time.Duration {
	if p.Bandwidth <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / p.Bandwidth * float64(time.Second))
}

// Link is the state of one directed link, kept by its sender: only the
// sender's sends touch it, so its jitter and drop draws come in the sender's
// send order, whichever kernel or shard hosts the receiver. The zero value is
// a healthy, idle link.
type Link struct {
	freeAt      int64  // when the sender's half-link finishes its last frame
	lastDeliver int64  // FIFO clamp
	draws       uint32 // jitter and drop draws taken so far
	// Cut severs the link: every frame sent on it is lost until it is
	// cleared. Cut both directions for a symmetric partition.
	Cut bool
}

// Schedule computes the delivery time of a frame of size bytes sent over l,
// the link from→to, at virtual time now. ok is false when the frame is lost
// to a cut or a random drop. The draws are the splitmix64 sequence of (seed,
// from, to), so a profile with neither jitter nor drops draws nothing and a
// frame's fate depends on its link's own history alone.
func (l *Link) Schedule(p Params, seed int64, from, to ids.ProcID, now int64, size int) (deliverAt int64, ok bool) {
	if l.Cut {
		return 0, false
	}
	if p.DropRate > 0 && float64(l.draw(seed, from, to)>>11)/(1<<53) < p.DropRate {
		return 0, false
	}
	start := max(now, l.freeAt)
	l.freeAt = start + int64(p.TransmitTime(size))
	at := l.freeAt + int64(p.Latency)
	if p.Jitter > 0 {
		at += int64(l.draw(seed, from, to) % uint64(p.Jitter))
	}
	// FIFO per link: never deliver before (or at the same instant as) the
	// previous frame on this link.
	if at <= l.lastDeliver {
		at = l.lastDeliver + 1
	}
	l.lastDeliver = at
	return at, true
}

// draw returns the link's next pseudo-random word: splitmix64's output for
// the draw counter, on a stream keyed by the run seed and both endpoints.
func (l *Link) draw(seed int64, from, to ids.ProcID) uint64 {
	l.draws++
	key := mix(uint64(seed) ^ uint64(uint32(from))<<32 ^ uint64(uint32(to)))
	return mix(key + uint64(l.draws)*0x9e3779b97f4a7c15)
}

// mix is splitmix64's finalizer.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
