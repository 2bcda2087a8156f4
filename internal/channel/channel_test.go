package channel

import (
	"testing"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/wire"
)

func frame(from ids.ProcID, dseq uint64) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindApp, From: from, Dseq: dseq, Payload: []byte{byte(dseq)}}
}

// consume is what every family does with a Next frame: advance Exp, then
// drain the frames it unblocked. It returns the dseqs consumed, in order.
func consume(in *In, e *wire.Envelope) (got []uint64) {
	for ; e != nil; e = in.Pop(e.From) {
		in.Exp[e.From] = e.Dseq
		got = append(got, e.Dseq)
	}
	return got
}

// TestAdmitPop: a frame at or below the watermark is a duplicate, one ahead
// of a gap is held (as its own copy), the frame that fills the gap drains
// everything held behind it in dseq order, and Reset forgets both the
// watermarks and the held frames.
func TestAdmitPop(t *testing.T) {
	in := NewIn(3)
	steps := []struct {
		name     string
		from     ids.ProcID
		dseq     uint64
		verdict  Verdict
		consumed []uint64
	}{
		{"first frame", 1, 1, Next, []uint64{1}},
		{"duplicate", 1, 1, Dup, nil},
		{"ahead of a gap", 1, 4, Held, nil},
		{"further ahead", 1, 3, Held, nil},
		{"another sender is independent", 2, 1, Next, []uint64{1}},
		{"held again is still held", 1, 4, Held, nil},
		{"fills the gap: drains across it", 1, 2, Next, []uint64{2, 3, 4}},
		{"below the drained watermark", 1, 3, Dup, nil},
	}
	for _, st := range steps {
		e := frame(st.from, st.dseq)
		v := in.Admit(e)
		e.Payload[0] = 0xff // the caller's envelope is reused for the next frame
		if v != st.verdict {
			t.Fatalf("%s: Admit(p%d dseq %d) = %v, want %v", st.name, st.from, st.dseq, v, st.verdict)
		}
		var got []uint64
		if v == Next {
			got = consume(&in, e)
		}
		if len(got) != len(st.consumed) {
			t.Fatalf("%s: consumed %v, want %v", st.name, got, st.consumed)
		}
		for i := range got {
			if got[i] != st.consumed[i] {
				t.Fatalf("%s: consumed %v, want %v", st.name, got, st.consumed)
			}
		}
	}
	if in.held[0] != nil {
		t.Fatal("a map was allocated for a sender never heard from")
	}
	if in.held[2] != nil {
		t.Fatal("a map was allocated for a sender that never got ahead of itself")
	}

	in.Admit(frame(1, 9))
	in.Reset(3)
	for q, exp := range in.Exp {
		if exp != 0 || in.held[q] != nil {
			t.Fatalf("after Reset: Exp[%d] = %d, held %v", q, exp, in.held[q])
		}
	}
	if v := in.Admit(frame(1, 1)); v != Next {
		t.Fatalf("after Reset, dseq 1 is %v, want Next", v)
	}
}

// TestHeldFrameIsACopy: a held frame survives the caller reusing its
// envelope (the runtime decodes every frame into the same one).
func TestHeldFrameIsACopy(t *testing.T) {
	in := NewIn(2)
	e := frame(1, 2)
	in.Admit(e)
	*e = *frame(1, 7)
	e.Payload[0] = 0xff
	in.Exp[1] = 1
	if got := in.Pop(1); got == nil || got.Dseq != 2 || got.Payload[0] != 2 {
		t.Fatalf("held frame = %+v, want dseq 2 with its own payload", got)
	}
	if got := in.Pop(1); got != nil {
		t.Fatalf("Pop after the drain = %+v, want nil", got)
	}
}

// sendRecorder is the part of node.Env that Request uses.
type sendRecorder struct {
	node.Env
	id   ids.ProcID
	sent []wire.Envelope
}

func (s *sendRecorder) ID() ids.ProcID { return s.id }
func (s *sendRecorder) Send(to ids.ProcID, e *wire.Envelope) {
	c := *e
	c.To = to
	s.sent = append(s.sent, c)
}

// TestRequest: one retransmission request per peer, in id order, each
// carrying our watermark for that peer and the given incarnation.
func TestRequest(t *testing.T) {
	in := NewIn(4)
	in.Exp = []uint64{5, 7, 0, 9}
	env := &sendRecorder{id: 1}
	in.Request(env, 3)
	want := []struct {
		to   ids.ProcID
		dseq uint64
	}{{0, 5}, {2, 0}, {3, 9}}
	if len(env.sent) != len(want) {
		t.Fatalf("sent %d requests, want %d", len(env.sent), len(want))
	}
	for i, w := range want {
		e := env.sent[i]
		if e.Kind != wire.KindReplayRequest || e.To != w.to || e.Dseq != w.dseq || e.FromInc != 3 {
			t.Fatalf("request %d = %+v, want to p%d dseq %d inc 3", i, e, w.to, w.dseq)
		}
	}
}

// TestAdmitInOrderAllocs: the steady state — every frame the next in order,
// nothing held — allocates nothing.
func TestAdmitInOrderAllocs(t *testing.T) {
	in := NewIn(8)
	e := frame(3, 0)
	if got := testing.AllocsPerRun(1000, func() {
		e.Dseq++
		if in.Admit(e) != Next {
			panic("not in order")
		}
		for f := e; f != nil; f = in.Pop(f.From) {
			in.Exp[f.From] = f.Dseq
		}
	}); got != 0 {
		t.Errorf("in-order Admit+Pop: %v allocs, want 0", got)
	}
}

// TestOutNext: dseqs start at 1 per destination and never skip.
func TestOutNext(t *testing.T) {
	out := make(Out, 3)
	for i, want := range []struct {
		to   ids.ProcID
		dseq uint64
	}{{1, 1}, {1, 2}, {2, 1}, {1, 3}} {
		if got := out.Next(want.to); got != want.dseq {
			t.Fatalf("send %d to p%d got dseq %d, want %d", i, want.to, got, want.dseq)
		}
	}
}
