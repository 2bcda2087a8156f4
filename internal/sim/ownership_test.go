package sim

import (
	"runtime"
	"testing"
	"time"

	"rollrec/internal/node"
	"rollrec/internal/storage"
)

// These tests pin the buffer-ownership contract of the simulator's node.Env
// (DESIGN §5): a stable write hands its buffer to the store instead of
// copying it, and a delivery costs no envelope.

func bootEnv(t *testing.T) (*Sharded, node.Env) {
	t.Helper()
	k := New(Config{Seed: 1, HW: hwFast()})
	k.AddNode(0, func() node.Process { return bootFunc(func(node.Env, bool) {}) })
	k.Boot()
	return k, node.Env(k.shards[0].find(0))
}

// TestWriteStableNoCopyAllocs: writing a 1 MB image allocates
// closures and an event slot, not another megabyte — the buffer the caller
// built is the one the store keeps.
func TestWriteStableNoCopyAllocs(t *testing.T) {
	k, env := bootEnv(t)
	const image = 1 << 20
	const rounds = 8
	bufs := make([][]byte, rounds)
	for i := range bufs {
		bufs[i] = make([]byte, image)
		bufs[i][0] = byte(i + 1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bufs {
		env.WriteStable("cp", storage.Image{Data: b}, nil)
		k.Run(time.Duration(k.Now()) + time.Minute)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > image/2 {
		t.Fatalf("%d stable writes of %d B allocated %d B; WriteStable and Put must not copy the image",
			rounds, image, got)
	}
	if got, ok := k.Store(0).Get("cp"); !ok || len(got.Data) != image || got.Data[0] != rounds {
		t.Fatalf("last write not durable: ok=%v len=%d first=%d", ok, len(got.Data), got.Data[0])
	}
}

// TestCrashDuringWriteKeepsPreviousValue: durability happens at completion,
// so a crash while the write is in flight loses it — ownership of the
// buffer moved to the runtime, neither its contents nor its padding ever
// reached the store — and the previous value stays intact.
func TestCrashDuringWriteKeepsPreviousValue(t *testing.T) {
	k, env := bootEnv(t)
	env.WriteStable("cp", storage.Image{Data: []byte("first"), Pad: 100}, nil)
	k.Run(time.Minute)
	done := false
	env.WriteStable("cp", storage.Image{Data: []byte("second"), Pad: 200}, func() { done = true })
	env.WriteStable("other", storage.Image{Pad: 300}, nil)
	k.shards[0].crash(0)
	k.Run(2 * time.Minute)
	if done {
		t.Fatal("completion callback of a write lost to a crash must not run")
	}
	if got, ok := k.Store(0).Get("cp"); !ok || string(got.Data) != "first" || got.Pad != 100 {
		t.Fatalf("cp = %q + %d, %v; the in-flight write must be lost and the old value kept", got.Data, got.Pad, ok)
	}
	if k.Store(0).Bytes() != 105 {
		t.Fatalf("store holds %d logical bytes, want the 105 of the first image", k.Store(0).Bytes())
	}
	if _, ok := k.Store(0).Get("other"); ok {
		t.Fatal("a write in flight at the crash must not become durable")
	}
}

// TestSendReceiveAllocs is the gate on BenchmarkKernelSendReceive: one
// end-to-end message costs its frame — the envelope is the kernel's own (it
// was an allocation when deliver used Decode) and the decoded payload a view
// of the frame (it was one while Reader.Bytes copied).
func TestSendReceiveAllocs(t *testing.T) {
	if got := sendReceiveAllocsPerMsg(allocGateSharded(1)); got > 1 {
		t.Fatalf("send+receive allocates %.2f/msg, want <= 1 (the frame)", got)
	}
}
