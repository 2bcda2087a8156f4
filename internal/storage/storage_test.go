package storage

import (
	"testing"
	"time"
)

func TestCostModel(t *testing.T) {
	p := Params{Latency: 10 * time.Millisecond, ReadBandwidth: 1e6, WriteBandwidth: 2e6}
	if got := p.ReadTime(1_000_000); got != 10*time.Millisecond+time.Second {
		t.Fatalf("ReadTime = %v", got)
	}
	if got := p.WriteTime(1_000_000); got != 10*time.Millisecond+500*time.Millisecond {
		t.Fatalf("WriteTime = %v", got)
	}
	if got := p.ReadTime(0); got != 10*time.Millisecond {
		t.Fatalf("zero-byte read must still pay latency: %v", got)
	}
	free := Params{}
	if got := free.WriteTime(1 << 20); got != 0 {
		t.Fatalf("zero params must be free: %v", got)
	}
}

func TestScale(t *testing.T) {
	p := Params{Latency: 10 * time.Millisecond, ReadBandwidth: 1e6, WriteBandwidth: 1e6}
	s := p.Scale(4)
	if s.Latency != 40*time.Millisecond {
		t.Fatalf("scaled latency = %v", s.Latency)
	}
	if s.ReadBandwidth != 0.25e6 {
		t.Fatalf("scaled bandwidth = %v", s.ReadBandwidth)
	}
	// Scaling must compose: a 4x slower disk reads 4x slower.
	if got, want := s.ReadTime(1_000_000), 40*time.Millisecond+4*time.Second; got != want {
		t.Fatalf("scaled ReadTime = %v, want %v", got, want)
	}
}

// TestStorePutOwnsGetIsolates pins the buffer-ownership contract: Put keeps
// the caller's slice (no second copy of a checkpoint image), so writing to
// it afterwards is the caller's bug; Get still hands out an isolated copy.
func TestStorePutOwnsGetIsolates(t *testing.T) {
	s := NewStore()
	data := []byte("checkpoint-1")
	img := Image{Data: data, Pad: 1 << 20}
	s.Put("cp", img)
	if allocs := testing.AllocsPerRun(10, func() { s.Put("cp", img) }); allocs != 0 {
		t.Fatalf("Put allocated %v times; it must keep the slice it is given", allocs)
	}
	got, ok := s.Get("cp")
	if !ok || string(got.Data) != "checkpoint-1" || got.Pad != 1<<20 {
		t.Fatalf("Get = %q + %d, %v", got.Data, got.Pad, ok)
	}
	if &got.Data[0] == &data[0] {
		t.Fatal("Get must return a copy, not the stored slice")
	}
	got.Data[0] = 'Y' // reader mutation must not reach the store
	got.Pad = 7
	if again, _ := s.Get("cp"); string(again.Data) != "checkpoint-1" || again.Pad != 1<<20 {
		t.Fatal("Get must return a copy")
	}
	// Documented, not defended: the store holds the very slice it was given.
	data[0] = 'X'
	if after, _ := s.Get("cp"); string(after.Data) != "Xheckpoint-1" {
		t.Fatalf("Put must take ownership of the slice, Get = %q", after.Data)
	}
}

// TestStoreReportsLogicalBytes: padding is a count the store never
// allocates, yet every size it reports includes it.
func TestStoreReportsLogicalBytes(t *testing.T) {
	s := NewStore()
	s.Put("cp", Image{Data: []byte("abc"), Pad: 1 << 20})
	s.Put("reply", Image{Pad: 500})
	s.Put("inc", Image{Data: []byte("0123456789ab")})
	if got := (Image{Data: []byte("abc"), Pad: 5}).Size(); got != 8 {
		t.Fatalf("Image.Size = %d, want 8", got)
	}
	if s.Size("cp") != 3+1<<20 || s.Size("reply") != 500 || s.Size("inc") != 12 {
		t.Fatalf("Size = %d, %d, %d", s.Size("cp"), s.Size("reply"), s.Size("inc"))
	}
	const total = 3 + 1<<20 + 500 + 12
	if s.Bytes() != total {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), total)
	}
	if got, want := s.String(), "store{keys=3 bytes=1049091}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestStoreMissingAndDelete(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("nope"); ok {
		t.Fatal("missing key must report !ok")
	}
	s.Put("k", Image{Data: []byte("v")})
	if s.Size("k") != 1 {
		t.Fatalf("Size = %d", s.Size("k"))
	}
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key must be gone")
	}
	if s.Size("k") != 0 {
		t.Fatal("deleted key must report size 0")
	}
}

func TestStoreKeysSorted(t *testing.T) {
	s := NewStore()
	s.Put("b", Image{})
	s.Put("a", Image{})
	s.Put("c", Image{})
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestDisk1995RestoreIsSubSecond(t *testing.T) {
	// The paper's ~1 MB process restores in roughly half a second on the
	// era's disk — the constant the E2 five-second breakdown builds on.
	d := Disk1995()
	got := d.ReadTime(1 << 20)
	if got < 300*time.Millisecond || got > 900*time.Millisecond {
		t.Fatalf("1 MB restore = %v, want ~0.5s", got)
	}
}
