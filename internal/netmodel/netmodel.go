package netmodel

import (
	"math/rand"
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

type linkKey struct{ from, to ids.ProcID }

type link struct {
	freeAt      int64 // when the sender's half-link finishes its last frame
	lastDeliver int64 // FIFO clamp
}

// Network tracks the state of all links. Not safe for concurrent use; the
// simulator owns it.
type Network struct {
	params Params
	// links[slot(from)][slot(to)]: a row is allocated on its source's first
	// send and grows to the highest destination it has sent to, so the
	// per-frame lookup is two index operations instead of a hashed struct key.
	links [][]link
	cut   map[linkKey]bool
	seed  int64
	rng   *rand.Rand // created by rand() on the first jitter or drop draw

	// Dropped counts frames lost to a partition or a random drop: the only
	// account of that loss (frames and bytes sent are metrics.Proc's).
	Dropped int64
}

// New returns a network with the given parameters. seed seeds the stream
// jitter and drops are drawn from; a profile with neither never builds it
// (seeding a math/rand source costs more than a short run's whole network).
func New(p Params, seed int64) *Network {
	return &Network{params: p, cut: make(map[linkKey]bool), seed: seed}
}

func (n *Network) rand() *rand.Rand {
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(n.seed))
	}
	return n.rng
}

// slot maps a process id onto a slice index; ids.StorageProc (-1) is 0.
func slot(p ids.ProcID) int { return int(p) + 1 }

// link returns the state of the directed link from→to, growing the table on
// first use.
func (n *Network) link(from, to ids.ProcID) *link {
	f, t := slot(from), slot(to)
	if f >= len(n.links) {
		n.links = append(n.links, make([][]link, f+1-len(n.links))...)
	}
	row := n.links[f]
	if t >= len(row) {
		row = append(row, make([]link, t+1-len(row))...)
		n.links[f] = row
	}
	return &row[t]
}

// Schedule computes the delivery time for a frame of size bytes sent at
// virtual time now. ok is false when the frame is lost to a partition or a
// random drop.
func (n *Network) Schedule(now int64, from, to ids.ProcID, size int) (deliverAt int64, ok bool) {
	if len(n.cut) > 0 && n.cut[linkKey{from, to}] {
		n.Dropped++
		return 0, false
	}
	if n.params.DropRate > 0 && n.rand().Float64() < n.params.DropRate {
		n.Dropped++
		return 0, false
	}
	l := n.link(from, to)
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	l.freeAt = start + int64(n.params.TransmitTime(size))
	at := l.freeAt + int64(n.params.Latency)
	if n.params.Jitter > 0 {
		at += n.rand().Int63n(int64(n.params.Jitter))
	}
	// FIFO per link: never deliver before (or at the same instant as) the
	// previous frame on this link.
	if at <= l.lastDeliver {
		at = l.lastDeliver + 1
	}
	l.lastDeliver = at
	return at, true
}

// Cut severs the directed link from→to; frames on it are dropped until
// Heal. Use both directions for a symmetric partition.
func (n *Network) Cut(from, to ids.ProcID) { n.cut[linkKey{from, to}] = true }

// Heal restores the directed link from→to.
func (n *Network) Heal(from, to ids.ProcID) { delete(n.cut, linkKey{from, to}) }

// Isolate cuts every link to and from p (used to model a network-dead
// host, distinct from a crashed process).
func (n *Network) Isolate(p ids.ProcID, peers []ids.ProcID) {
	for _, q := range peers {
		if q != p {
			n.Cut(p, q)
			n.Cut(q, p)
		}
	}
}

// Rejoin heals every link to and from p.
func (n *Network) Rejoin(p ids.ProcID, peers []ids.ProcID) {
	for _, q := range peers {
		if q != p {
			n.Heal(p, q)
			n.Heal(q, p)
		}
	}
}
