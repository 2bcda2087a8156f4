package netmodel

import (
	"testing"
	"testing/quick"
	"time"

	"rollrec/internal/ids"
)

func newTestNet(p Params) *Network {
	return New(p, 1)
}

func TestLatencyOnly(t *testing.T) {
	n := newTestNet(Params{Latency: time.Millisecond})
	at, ok := n.Schedule(0, 0, 1, 100)
	if !ok {
		t.Fatal("frame dropped on healthy link")
	}
	if at != int64(time.Millisecond) {
		t.Fatalf("deliverAt = %d, want 1ms", at)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1 MB/s: a 1000-byte frame takes 1 ms to transmit.
	n := newTestNet(Params{Latency: time.Millisecond, Bandwidth: 1e6})
	a1, _ := n.Schedule(0, 0, 1, 1000)
	a2, _ := n.Schedule(0, 0, 1, 1000)
	if a1 != int64(2*time.Millisecond) {
		t.Fatalf("first frame at %v, want 2ms", time.Duration(a1))
	}
	if a2 != int64(3*time.Millisecond) {
		t.Fatalf("second frame must queue behind the first: at %v, want 3ms", time.Duration(a2))
	}
}

func TestLinksAreIndependent(t *testing.T) {
	n := newTestNet(Params{Latency: time.Millisecond, Bandwidth: 1e6})
	n.Schedule(0, 0, 1, 1000)
	a, _ := n.Schedule(0, 0, 2, 1000)
	if a != int64(2*time.Millisecond) {
		t.Fatalf("different destination must not queue: at %v", time.Duration(a))
	}
	b, _ := n.Schedule(0, 2, 1, 1000)
	if b != int64(2*time.Millisecond) {
		t.Fatalf("different source must not queue: at %v", time.Duration(b))
	}
}

func TestFIFOUnderJitter(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		n := New(Params{Latency: time.Millisecond, Jitter: 5 * time.Millisecond, Bandwidth: 1e7}, seed)
		now, prev := int64(0), int64(-1)
		for _, s := range sizes {
			at, ok := n.Schedule(now, 0, 1, int(s))
			if !ok {
				return false
			}
			if at <= prev {
				return false
			}
			prev = at
			now += int64(100 * time.Microsecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCutAndHeal(t *testing.T) {
	n := newTestNet(Params{Latency: time.Millisecond})
	n.Cut(0, 1)
	if _, ok := n.Schedule(0, 0, 1, 10); ok {
		t.Fatal("cut link must drop")
	}
	if _, ok := n.Schedule(0, 1, 0, 10); !ok {
		t.Fatal("reverse direction must still work")
	}
	n.Heal(0, 1)
	if _, ok := n.Schedule(0, 0, 1, 10); !ok {
		t.Fatal("healed link must deliver")
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped)
	}
}

func TestIsolateRejoin(t *testing.T) {
	n := newTestNet(Params{Latency: time.Millisecond})
	peers := []ids.ProcID{0, 1, 2}
	n.Isolate(1, peers)
	if _, ok := n.Schedule(0, 0, 1, 10); ok {
		t.Fatal("isolated process must not receive")
	}
	if _, ok := n.Schedule(0, 1, 2, 10); ok {
		t.Fatal("isolated process must not send")
	}
	if _, ok := n.Schedule(0, 0, 2, 10); !ok {
		t.Fatal("unrelated links must survive isolation")
	}
	n.Rejoin(1, peers)
	if _, ok := n.Schedule(0, 0, 1, 10); !ok {
		t.Fatal("rejoined process must receive again")
	}
}

func TestDropRate(t *testing.T) {
	n := newTestNet(Params{DropRate: 1.0})
	if _, ok := n.Schedule(0, 0, 1, 10); ok {
		t.Fatal("DropRate 1.0 must drop everything")
	}
	n = newTestNet(Params{DropRate: 0.0})
	if _, ok := n.Schedule(0, 0, 1, 10); !ok {
		t.Fatal("DropRate 0 must drop nothing")
	}
}

func TestTransmitTime(t *testing.T) {
	p := Params{Bandwidth: 1e6}
	if got := p.TransmitTime(1000); got != time.Millisecond {
		t.Fatalf("TransmitTime = %v, want 1ms", got)
	}
	if got := (Params{}).TransmitTime(1000); got != 0 {
		t.Fatalf("zero bandwidth must be free: %v", got)
	}
	if got := p.TransmitTime(0); got != 0 {
		t.Fatalf("empty frame must be free: %v", got)
	}
}
