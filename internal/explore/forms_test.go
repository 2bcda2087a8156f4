package explore

import (
	"bytes"
	"testing"
	"time"

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

// restored is the payload as a restored record holds it: written into an
// image the way the fbl checkpoint, the coordinated snapshot and the
// optimistic log write a logged payload (wire.Writer.ImageBytes) among other
// fields, and read back (wire.Reader.ImageBytes).
func restored(t *testing.T, p storage.Image) storage.Image {
	t.Helper()
	w := wire.NewWriter(0)
	w.U64(1)
	w.ImageBytes(p)
	w.Pad(1 << 20)
	r := wire.NewImageReader(w.Frame(), w.Padded())
	r.U64()
	got := r.ImageBytes()
	if r.Pad(); !r.Done() {
		t.Fatalf("an image of the payload does not read back: %v", r.Err())
	}
	return got
}

// TestPaddedPayloadFormsAgree: every app that pads its messages is handed
// one of its own padded payloads as sent and as a checkpoint, snapshot or
// log restore hands it back, and the two are one form: the same data, the
// same pad — a count in both, never zeros in the data — and so the same
// effect on the receiving app (its digest and what it sends). The family
// codecs' own round trips of padded payloads are their packages' tests
// (TestCheckpointRestoresPaddedPayloads and its coord and optimistic twins).
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
			sent := tc.payload(t)
			back := restored(t, sent)
			if !bytes.Equal(back.Data, sent.Data) || back.Pad != sent.Pad || sent.Pad != pad {
				t.Fatalf("sent %d B + %d pad, restored %d B + %d pad", len(sent.Data), sent.Pad, len(back.Data), back.Pad)
			}
			handle := func(p storage.Image) (uint64, []sentMsg) {
				app, ctx := tc.f(tc.to, tc.n), &sentCtx{self: int(tc.to), n: tc.n}
				if err := app.Handle(ctx, tc.from, p); err != nil {
					t.Fatalf("%d B + %d pad: %v", len(p.Data), p.Pad, err)
				}
				return app.Digest(), ctx.sent
			}
			d1, s1 := handle(sent)
			d2, s2 := handle(back)
			if d1 != d2 {
				t.Fatalf("digest %#x after the sent payload, %#x after the restored one", d1, d2)
			}
			if len(s1) != len(s2) {
				t.Fatalf("%d sends after the sent payload, %d after the restored one", len(s1), len(s2))
			}
			for i := range s1 {
				if s1[i].to != s2[i].to || string(s1[i].payload.Data) != string(s2[i].payload.Data) || s1[i].payload.Pad != s2[i].payload.Pad {
					t.Fatalf("send %d differs: %+v vs %+v", i, s1[i], s2[i])
				}
			}
		})
	}
}
