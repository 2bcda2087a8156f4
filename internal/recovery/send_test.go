package recovery

import (
	"bytes"
	"testing"
	"time"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/sim"
	"rollrec/internal/vclock"
	"rollrec/internal/wire"
)

// hostProc is a simulator process that only hosts a manager over a fakeHost
// whose depinfo is a view of one log built up front, so that a reply
// allocates nothing of the host's.
type hostProc struct {
	m    *Manager
	host *viewHost
}

func (p *hostProc) Boot(env node.Env, _ bool) {
	p.m = newManager(Config{Style: NonBlocking, F: 1}, p.host, env)
}
func (p *hostProc) Deliver(*wire.Envelope) {}

type viewHost struct {
	*fakeHost
	view det.View
}

func (h *viewHost) DepInfo([]ids.ProcID) det.View { return h.view }

// TestSendAllocs: the envelope of every send is the manager's tx, so on the
// simulator, with p0's links cut so that each frame is encoded, counted and
// lost, a round of depinfo requests, a depinfo reply and a broadcast allocate
// nothing, where each frame used to cost a 224 B envelope.
func TestSendAllocs(t *testing.T) {
	const n = 4
	k := sim.New(sim.Config{Seed: 1, HW: node.Profile1995()})
	log := det.NewLog(det.Config{N: n, F: 1})
	if err := log.MergeEntries([]det.Entry{entry(1, 1, 2, 1, 2)}); err != nil {
		t.Fatal(err)
	}
	procs := make([]*hostProc, n)
	for i := range procs {
		procs[i] = &hostProc{host: &viewHost{fakeHost: newFakeHost(n), view: log.View(nil)}}
		k.AddNode(ids.ProcID(i), func() node.Process { return procs[i] })
		if i > 0 {
			k.Cut(0, ids.ProcID(i))
		}
	}
	k.Boot()
	k.Run(time.Second)
	m := procs[0].m
	m.myOrd = ids.Ordinal{Clock: 3, Proc: 0}
	m.g = gather{round: 1, dep: true, awaited: []bool{false, true, true, true, false}, incVec: vclock.NewIncVector(n)}
	for _, tc := range []struct {
		name string
		send func()
	}{
		{"depinfo requests", m.sendDepRequests},
		{"depinfo reply", func() { m.replyDeps(1, ids.Ordinal{Clock: 2, Proc: 1}, 1, nil) }},
		{"broadcast", func() { m.broadcast(wire.KindRecoveryComplete) }},
	} {
		if got := testing.AllocsPerRun(100, tc.send); got != 0 {
			t.Errorf("%s allocates %.1f times, want 0", tc.name, got)
		}
	}
	// 101 calls of each: n-1 requests, one reply, n-1 broadcast frames.
	if sent, _ := k.Metrics(0).TotalSent(); sent != 101*(2*(n-1)+1) {
		t.Fatalf("setup: p0 sent %d frames, want %d", sent, 101*(2*(n-1)+1))
	}
}

// frameLog stands in for a manager's network: it keeps the frame each send
// encodes, at the call, as the simulator does.
type frameLog struct {
	node.Env
	frames *[][]byte
}

func (f frameLog) Send(_ ids.ProcID, e *wire.Envelope) {
	e.From = f.ID()
	*f.frames = append(*f.frames, wire.Encode(e))
}

// TestScratchEnvelopeCarriesNothingOver: each send builds the whole of its
// envelope in tx, so a send that follows one of another kind encodes the
// bytes it encodes from a zero tx — a completion broadcast inherits no
// gathered determinants, an IncReply no leader's vector or member list.
func TestScratchEnvelopeCarriesNothingOver(t *testing.T) {
	ord, other := ids.Ordinal{Clock: 5, Proc: 1}, ids.Ordinal{Clock: 7, Proc: 3}
	steps := []func(m *Manager){
		func(m *Manager) { m.replyDeps(0, other, 4, []ids.ProcID{2}) },
		func(m *Manager) { m.StartRecovery(ord, 2) }, // announce, depinfo requests
		func(m *Manager) { // p3 joins: an IncRequest-free restart, then new requests
			m.HandleMessage(&wire.Envelope{Kind: wire.KindRecoveryAnnounce, From: 3, FromInc: 2, Ord: other})
		},
		func(m *Manager) {
			for _, from := range []ids.ProcID{0, 2, 4} {
				m.HandleMessage(&wire.Envelope{Kind: wire.KindDepReply, From: from, FromInc: 1, Round: 2,
					DetList: listOf(entry(from, 1, 3, ids.RSN(from)+1, int(from), 3))})
			}
		}, // recovery data to p3, then the completion broadcast
		func(m *Manager) {
			m.HandleMessage(&wire.Envelope{Kind: wire.KindIncRequest, From: 4, FromInc: 1, Ord: other, Round: 9})
		},
		func(m *Manager) { m.ReplayDone() },
		func(m *Manager) { m.replyDeps(2, other, 5, nil) },
	}
	run := func(fresh bool) [][]byte {
		var frames [][]byte
		host := newFakeHost(5)
		host.dep = []det.Entry{entry(0, 1, 2, 1, 0, 2), entry(2, 1, 4, 1, 2, 4)}
		m := newManager(Config{Style: NonBlocking, F: 2, ScopedGather: true}, host, frameLog{newFakeEnv(1, 5), &frames})
		for _, step := range steps {
			if fresh {
				m.tx = wire.Envelope{}
			}
			step(m)
		}
		return frames
	}
	got, want := run(false), run(true)
	if len(got) < len(steps) || len(want) != len(got) {
		t.Fatalf("%d frames after other sends, %d from a zero tx; want as many, at least %d", len(got), len(want), len(steps))
	}
	kinds := map[wire.Kind]bool{}
	for i := range got {
		kinds[wire.Kind(got[i][1])] = true // the byte after the codec version
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d encodes %x after the sends before it, %x from a zero tx", i, got[i], want[i])
		}
	}
	for _, k := range []wire.Kind{wire.KindDepReply, wire.KindRecoveryAnnounce, wire.KindDepRequest,
		wire.KindRecoveryData, wire.KindRecoveryComplete, wire.KindIncReply, wire.KindRecovered} {
		if !kinds[k] {
			t.Errorf("setup: no %v frame among the %d sent", k, len(got))
		}
	}
}
