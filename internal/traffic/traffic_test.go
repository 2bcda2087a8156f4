package traffic

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/storage"
	"rollrec/internal/workload"
)

func TestExpGapMeanAndDeterminism(t *testing.T) {
	const mean = int64(time.Millisecond)
	rng := workload.NewPRNG(42)
	const n = 200000
	var sum int64
	for i := 0; i < n; i++ {
		g := expGap(&rng, mean)
		if g <= 0 {
			t.Fatalf("sample %d: non-positive gap %d", i, g)
		}
		sum += g
	}
	got := sum / n
	if got < mean*97/100 || got > mean*103/100 {
		t.Fatalf("empirical mean %d outside 3%% of %d", got, mean)
	}

	a, b := workload.NewPRNG(7), workload.NewPRNG(7)
	for i := 0; i < 1000; i++ {
		if ga, gb := expGap(&a, mean), expGap(&b, mean); ga != gb {
			t.Fatalf("sample %d: same seed diverged: %d vs %d", i, ga, gb)
		}
	}
}

func TestParetoGapBoundsAndMean(t *testing.T) {
	const mean = int64(10 * time.Millisecond)
	low := mean * 1000 / 2703
	rng := workload.NewPRNG(99)
	const n = 200000
	var sum int64
	for i := 0; i < n; i++ {
		g := paretoGap(&rng, mean)
		if g < low || g > 100*low {
			t.Fatalf("sample %d: gap %d outside [%d, %d]", i, g, low, 100*low)
		}
		sum += g
	}
	got := sum / n
	if got < mean*90/100 || got > mean*110/100 {
		t.Fatalf("empirical mean %d outside 10%% of %d", got, mean)
	}
}

func TestEngineScheduleIsSeedPure(t *testing.T) {
	spec := workload.Traffic{Clients: 2, Frontends: 1, Backends: 1, FanOut: 1, Load: 1000}
	type ev struct {
		at time.Duration
		p  ids.ProcID
	}
	run := func(seed int64) []ev {
		var got []ev
		var pendingAt []time.Duration
		var pendingFn []func()
		h := Host{
			At: func(at time.Duration, fn func()) {
				pendingAt = append(pendingAt, at)
				pendingFn = append(pendingFn, fn)
			},
			Inject: func(p ids.ProcID, payload []byte) bool {
				got = append(got, ev{pendingAt[0], p})
				return true
			},
		}
		e := NewEngine(spec, seed)
		e.Attach(h, 100*time.Millisecond)
		// Drain in FIFO order; exact interleaving doesn't matter for this
		// test — only that the (time, proc) stream is a pure seed function.
		for len(pendingFn) > 0 {
			fn := pendingFn[0]
			pendingFn = pendingFn[1:]
			fn()
			pendingAt = pendingAt[1:]
		}
		if e.Offered() != e.Admitted() || e.Shed() != 0 {
			t.Fatalf("counters: offered %d admitted %d shed %d", e.Offered(), e.Admitted(), e.Shed())
		}
		return got
	}
	a, b := run(5), run(5)
	if len(a) == 0 {
		t.Fatal("no arrivals within horizon")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(6)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical arrival schedule")
	}
}

// chanCtx is a test host: it queues sends for synchronous in-order delivery
// and records outputs.
type chanCtx struct {
	self    ids.ProcID
	n       int
	apps    []workload.App
	queue   *[]queuedMsg
	outputs *[][]byte
}

type queuedMsg struct {
	from, to ids.ProcID
	payload  storage.Image
}

func (c chanCtx) Self() ids.ProcID { return c.self }
func (c chanCtx) N() int           { return c.n }
func (c chanCtx) Work(int64)       {}
func (c chanCtx) Send(to ids.ProcID, payload storage.Image) {
	payload.Data = append([]byte(nil), payload.Data...)
	*c.queue = append(*c.queue, queuedMsg{c.self, to, payload})
}
func (c chanCtx) Output(payload []byte) {
	*c.outputs = append(*c.outputs, append([]byte(nil), payload...))
}

func TestAppRequestRoundTrip(t *testing.T) {
	spec := workload.Traffic{Clients: 1, Frontends: 1, Backends: 2, FanOut: 2, Load: 100, PayloadPad: 8}
	factory := NewApp(spec)
	n := spec.N()
	apps := make([]workload.App, n)
	for i := range apps {
		apps[i] = factory(ids.ProcID(i), n)
	}
	var queue []queuedMsg
	var outputs [][]byte
	ctx := func(self ids.ProcID) chanCtx {
		return chanCtx{self: self, n: n, apps: apps, queue: &queue, outputs: &outputs}
	}

	// Inject two arrivals, drain the message queue to quiescence.
	apps[0].Handle(ctx(0), 0, storage.Image{Data: arrivalFrame(1, 111)})
	apps[0].Handle(ctx(0), 0, storage.Image{Data: arrivalFrame(2, 222)})
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		apps[m.to].Handle(ctx(m.to), m.from, m.payload)
	}

	cl := apps[0].(*app)
	if cl.Released() != 2 {
		t.Fatalf("client released %d of 2 requests", cl.Released())
	}
	if got := cl.InflightReqs(); got != 0 {
		t.Fatalf("client still holds %d open requests", got)
	}
	if fe := apps[1].(*app); fe.InflightReqs() != 0 {
		t.Fatalf("frontend still fanning in %d requests", fe.InflightReqs())
	}
	// 2 requests x (2 shard outputs + 1 frontend output + 1 client release).
	if len(outputs) != 8 {
		t.Fatalf("got %d outputs, want 8", len(outputs))
	}
	var shards uint64
	for _, a := range apps[2:] {
		shards += a.(*app).Applied()
	}
	if shards != 4 {
		t.Fatalf("backends applied %d shards, want 4", shards)
	}
}

// TestTruncatedFrameIsRejected walks one request through every tier and, at
// each hop, first offers the receiver its frame cut one byte short: the app
// must reject it and change nothing — no state, no send, no output.
func TestTruncatedFrameIsRejected(t *testing.T) {
	spec := workload.Traffic{Clients: 1, Frontends: 1, Backends: 2, FanOut: 2, Load: 100, PayloadPad: 8}
	factory := NewApp(spec)
	n := spec.N()
	apps := make([]workload.App, n)
	for i := range apps {
		apps[i] = factory(ids.ProcID(i), n)
	}
	var outputs [][]byte
	queue := []queuedMsg{{0, 0, storage.Image{Data: arrivalFrame(1, 111)}}}
	ctx := func(self ids.ProcID) chanCtx {
		return chanCtx{self: self, n: n, apps: apps, queue: &queue, outputs: &outputs}
	}
	hops := 0
	for ; len(queue) > 0; hops++ {
		m := queue[0]
		queue = queue[1:]
		a := apps[m.to]
		digest, sends, outs := a.Digest(), len(queue), len(outputs)
		cut := storage.Image{Data: m.payload.Data[:len(m.payload.Data)-1], Pad: m.payload.Pad}
		if err := a.Handle(ctx(m.to), m.from, cut); err == nil {
			t.Fatalf("hop %d: truncated frame accepted by p%d", hops, m.to)
		}
		if a.Digest() != digest || len(queue) != sends || len(outputs) != outs {
			t.Fatalf("hop %d: a rejected frame changed p%d", hops, m.to)
		}
		if err := a.Handle(ctx(m.to), m.from, m.payload); err != nil {
			t.Fatalf("hop %d: %v", hops, err)
		}
	}
	// Arrival, request, two shard requests, two shard replies, reply.
	if hops != 7 {
		t.Fatalf("request took %d hops, want 7", hops)
	}
}

func TestAppSnapshotRoundTrip(t *testing.T) {
	spec := workload.Traffic{Clients: 1, Frontends: 1, Backends: 2, FanOut: 2, Load: 100}
	factory := NewApp(spec)
	n := spec.N()
	apps := make([]workload.App, n)
	for i := range apps {
		apps[i] = factory(ids.ProcID(i), n)
	}
	var queue []queuedMsg
	var outputs [][]byte
	ctx := func(self ids.ProcID) chanCtx {
		return chanCtx{self: self, n: n, apps: apps, queue: &queue, outputs: &outputs}
	}
	// Leave the system mid-request: inject but only deliver the first two
	// hops, so client queue and frontend fan-in state are non-trivial.
	apps[0].Handle(ctx(0), 0, storage.Image{Data: arrivalFrame(1, 333)})
	for i := 0; i < 2 && len(queue) > 0; i++ {
		m := queue[0]
		queue = queue[1:]
		apps[m.to].Handle(ctx(m.to), m.from, m.payload)
	}
	for i, a := range apps {
		snap := a.Snapshot()
		fresh := factory(ids.ProcID(i), n)
		if err := fresh.Restore(snap); err != nil {
			t.Fatalf("proc %d: restore: %v", i, err)
		}
		if fresh.Digest() != a.Digest() {
			t.Fatalf("proc %d: digest mismatch after snapshot round trip", i)
		}
	}
	if err := apps[0].Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("restore accepted a garbage snapshot")
	}
}
