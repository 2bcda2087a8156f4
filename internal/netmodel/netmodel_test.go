package netmodel

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"rollrec/internal/ids"
)

func TestLatencyOnly(t *testing.T) {
	var l Link
	at, ok := l.Schedule(Params{Latency: time.Millisecond}, 1, 0, 1, 0, 100)
	if !ok {
		t.Fatal("frame dropped on healthy link")
	}
	if at != int64(time.Millisecond) {
		t.Fatalf("deliverAt = %d, want 1ms", at)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1 MB/s: a 1000-byte frame takes 1 ms to transmit.
	p := Params{Latency: time.Millisecond, Bandwidth: 1e6}
	var l Link
	a1, _ := l.Schedule(p, 1, 0, 1, 0, 1000)
	a2, _ := l.Schedule(p, 1, 0, 1, 0, 1000)
	if a1 != int64(2*time.Millisecond) {
		t.Fatalf("first frame at %v, want 2ms", time.Duration(a1))
	}
	if a2 != int64(3*time.Millisecond) {
		t.Fatalf("second frame must queue behind the first: at %v, want 3ms", time.Duration(a2))
	}
}

func TestLinksAreIndependent(t *testing.T) {
	p := Params{Latency: time.Millisecond, Bandwidth: 1e6}
	var l01, l02, l21 Link
	l01.Schedule(p, 1, 0, 1, 0, 1000)
	a, _ := l02.Schedule(p, 1, 0, 2, 0, 1000)
	if a != int64(2*time.Millisecond) {
		t.Fatalf("different destination must not queue: at %v", time.Duration(a))
	}
	b, _ := l21.Schedule(p, 1, 2, 1, 0, 1000)
	if b != int64(2*time.Millisecond) {
		t.Fatalf("different source must not queue: at %v", time.Duration(b))
	}
}

// TestFIFOUnderJitter: jitter reorders nothing on a link and never delivers
// before send + Latency, the lower bound a conservative window relies on.
func TestFIFOUnderJitter(t *testing.T) {
	p := Params{Latency: time.Millisecond, Jitter: 5 * time.Millisecond, Bandwidth: 1e7}
	f := func(seed int64, sizes []uint16) bool {
		var l Link
		now, prev := int64(0), int64(-1)
		for _, s := range sizes {
			at, ok := l.Schedule(p, seed, 0, 1, now, int(s))
			if !ok || at <= prev || at < now+int64(p.Latency) {
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

// TestDrawsAreTheLinksOwn: a link's jitter is a function of the seed, its
// endpoints and its own send history, so two links with equal histories draw
// equal delays and another endpoint pair or seed draws others.
func TestDrawsAreTheLinksOwn(t *testing.T) {
	p := Params{Latency: time.Millisecond, Jitter: time.Second}
	arrivals := func(seed int64, from, to ids.ProcID) (out []int64) {
		var l Link
		for i := int64(0); i < 8; i++ {
			at, _ := l.Schedule(p, seed, from, to, i*int64(2*time.Second), 10)
			out = append(out, at)
		}
		return out
	}
	a := arrivals(1, 0, 1)
	if b := arrivals(1, 0, 1); !slices.Equal(a, b) {
		t.Fatalf("equal histories drew %v and %v", a, b)
	}
	if b := arrivals(1, 1, 0); slices.Equal(a, b) {
		t.Fatal("the reverse link drew the same delays")
	}
	if b := arrivals(2, 0, 1); slices.Equal(a, b) {
		t.Fatal("another seed drew the same delays")
	}
}

func TestCutAndHeal(t *testing.T) {
	p := Params{Latency: time.Millisecond}
	var l01, l10 Link
	l01.Cut = true
	if _, ok := l01.Schedule(p, 1, 0, 1, 0, 10); ok {
		t.Fatal("cut link must drop")
	}
	if _, ok := l10.Schedule(p, 1, 1, 0, 0, 10); !ok {
		t.Fatal("reverse direction must still work")
	}
	l01.Cut = false
	if _, ok := l01.Schedule(p, 1, 0, 1, 0, 10); !ok {
		t.Fatal("healed link must deliver")
	}
}

func TestDropRate(t *testing.T) {
	var l Link
	if _, ok := l.Schedule(Params{DropRate: 1.0}, 1, 0, 1, 0, 10); ok {
		t.Fatal("DropRate 1.0 must drop everything")
	}
	if _, ok := l.Schedule(Params{DropRate: 0.0}, 1, 0, 1, 0, 10); !ok {
		t.Fatal("DropRate 0 must drop nothing")
	}
	lost := 0
	for i := 0; i < 10000; i++ {
		if _, ok := l.Schedule(Params{DropRate: 0.1}, 1, 0, 1, 0, 10); !ok {
			lost++
		}
	}
	if lost < 900 || lost > 1100 {
		t.Fatalf("DropRate 0.1 lost %d of 10000 frames", lost)
	}
}

// TestLinkSize: a sender keeps one Link per destination, up to 1025 of them
// at n=1024, so the struct stays at three words.
func TestLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got > 24 {
		t.Fatalf("Link is %d bytes, want at most 24", got)
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
