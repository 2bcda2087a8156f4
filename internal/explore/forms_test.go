package explore

import (
	"testing"
	"time"

	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/storage"
	"rollrec/internal/traffic"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// sentMsg is one payload an app handed to Send.
type sentMsg struct {
	to      ids.ProcID
	payload storage.Image
}

// sentCtx is a workload.Ctx that keeps every send, its data copied.
type sentCtx struct {
	self, n int
	sent    []sentMsg
}

func (c *sentCtx) Self() ids.ProcID { return ids.ProcID(c.self) }
func (c *sentCtx) N() int           { return c.n }
func (c *sentCtx) Work(int64)       {}
func (c *sentCtx) Output([]byte)    {}
func (c *sentCtx) Send(to ids.ProcID, p storage.Image) {
	p.Data = append([]byte(nil), p.Data...)
	c.sent = append(c.sent, sentMsg{to, p})
}

// materialise is the form a restored record has: the payload written into an
// image the way the fbl checkpoint, the coordinated snapshot and the
// optimistic log write it (wire.Writer.ImageBytes), and read back.
func materialise(t *testing.T, p storage.Image) storage.Image {
	t.Helper()
	w := wire.NewWriter(0)
	w.ImageBytes(p)
	r := wire.NewReader(w.Frame())
	data := r.Bytes()
	if !r.Done() {
		t.Fatalf("an image of the payload does not read back: %v", r.Err())
	}
	return storage.Image{Data: data}
}

// TestPaddedPayloadFormsAgree: every app that pads its messages is handed
// one of its own padded payloads in both of the forms a payload takes — as
// sent, the pad a count, and as a checkpoint, snapshot or log restore hands
// it back, the zeros in its data — and both forms are one message: the same
// logical length, the same fbl hook hash, and the same effect on the
// receiving app (its digest and what it sends).
func TestPaddedPayloadFormsAgree(t *testing.T) {
	const pad = 256
	tr := workload.Traffic{Clients: 1, Frontends: 1, Backends: 2, FanOut: 2, Load: 100, PayloadPad: pad}
	trafficApp := traffic.NewApp(tr)

	// first returns the first payload padded by pad among ctx's sends;
	// started, the first its app's Start sends; request and shardRequest
	// walk the traffic tiers up to the hop that sends one.
	first := func(t *testing.T, ctx *sentCtx) storage.Image {
		t.Helper()
		for _, m := range ctx.sent {
			if m.payload.Pad == pad {
				return m.payload
			}
		}
		t.Fatalf("no payload padded by %d among %d sends", pad, len(ctx.sent))
		return storage.Image{}
	}
	started := func(f workload.Factory, self, n int) func(*testing.T) storage.Image {
		return func(t *testing.T) storage.Image {
			ctx := &sentCtx{self: self, n: n}
			f(ids.ProcID(self), n).Start(ctx)
			return first(t, ctx)
		}
	}
	// arrival is one open-loop arrival frame, as the traffic engine
	// injects it at client 0.
	arrival := func(t *testing.T) storage.Image {
		var (
			fire    func()
			payload []byte
		)
		e := traffic.NewEngine(tr, 1)
		e.Attach(traffic.Host{
			At:     func(_ time.Duration, fn func()) { fire = fn },
			Inject: func(_ ids.ProcID, p []byte) bool { payload = p; return true },
		}, time.Hour)
		fire()
		return storage.Image{Data: payload}
	}
	request := func(t *testing.T) storage.Image {
		ctx := &sentCtx{self: 0, n: tr.N()}
		if err := trafficApp(0, tr.N()).Handle(ctx, 0, arrival(t)); err != nil {
			t.Fatal(err)
		}
		return first(t, ctx)
	}
	shardRequest := func(t *testing.T) storage.Image {
		ctx := &sentCtx{self: 1, n: tr.N()}
		if err := trafficApp(1, tr.N()).Handle(ctx, 0, request(t)); err != nil {
			t.Fatal(err)
		}
		return first(t, ctx)
	}

	for _, tc := range []struct {
		name     string
		payload  func(*testing.T) storage.Image
		f        workload.Factory
		n        int
		from, to ids.ProcID
	}{
		{"random-peer", started(workload.NewRandomPeer(1, 3, pad, 0), 0, 3), workload.NewRandomPeer(1, 3, pad, 0), 3, 0, 1},
		{"token-ring", started(workload.NewTokenRing(9, pad, 0), 0, 3), workload.NewTokenRing(9, pad, 0), 3, 0, 1},
		{"client-server request", started(workload.NewClientServer(3, pad, 0), 1, 3), workload.NewClientServer(3, pad, 0), 3, 1, 0},
		{"traffic request", request, trafficApp, tr.N(), 0, 1},
		{"traffic shard request", shardRequest, trafficApp, tr.N(), 1, 2},
		{"explorer ring", started(ringFactory(9, pad, 0), 0, 3), ringFactory(9, pad, 0), 3, 0, 1},
		{"explorer funnel", started(funnelFactory(3, pad, 0), 1, 3), funnelFactory(3, pad, 0), 3, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			modelled := tc.payload(t)
			dense := materialise(t, modelled)
			if dense.Pad != 0 || len(dense.Data) != modelled.Size() || modelled.Size() != len(modelled.Data)+pad {
				t.Fatalf("logical lengths differ: %d B + %d pad modelled, %d B + %d pad materialised",
					len(modelled.Data), modelled.Pad, len(dense.Data), dense.Pad)
			}
			if fbl.PayloadHash(modelled) != fbl.PayloadHash(dense) {
				t.Fatal("the fbl hook hash tells the two forms apart")
			}
			handle := func(p storage.Image) (uint64, []sentMsg) {
				app, ctx := tc.f(tc.to, tc.n), &sentCtx{self: int(tc.to), n: tc.n}
				if err := app.Handle(ctx, tc.from, p); err != nil {
					t.Fatalf("%d B + %d pad: %v", len(p.Data), p.Pad, err)
				}
				return app.Digest(), ctx.sent
			}
			d1, s1 := handle(modelled)
			d2, s2 := handle(dense)
			if d1 != d2 {
				t.Fatalf("digest %#x after the modelled form, %#x after the materialised one", d1, d2)
			}
			if len(s1) != len(s2) {
				t.Fatalf("%d sends after the modelled form, %d after the materialised one", len(s1), len(s2))
			}
			for i := range s1 {
				if s1[i].to != s2[i].to || string(s1[i].payload.Data) != string(s2[i].payload.Data) || s1[i].payload.Pad != s2[i].payload.Pad {
					t.Fatalf("send %d differs: %+v vs %+v", i, s1[i], s2[i])
				}
			}
		})
	}
}
