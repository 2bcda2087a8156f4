package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
)

// viewLog returns a log of 300 determinants with one to twelve holders each,
// spread over every receiver but the last, some stable and some pending.
func viewLog(t *testing.T, cfg det.Config) *det.Log {
	t.Helper()
	l := det.NewLog(cfg)
	rng := rand.New(rand.NewSource(int64(cfg.N)))
	for i := 1; i <= 300; i++ {
		hs := make([]int, 1+rng.Intn(12))
		for j := range hs {
			hs[j] = rng.Intn(cfg.N)
		}
		e := det.Entry{
			Det:     det.Determinant{Msg: ids.MsgID{Sender: ids.ProcID(rng.Intn(cfg.N)), SSN: ids.SSN(i)}, Receiver: ids.ProcID(rng.Intn(cfg.N - 1)), RSN: ids.RSN(i)},
			Holders: bitset.FromSlice(hs),
		}
		if err := l.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Pending == 0 || st.Pending == st.Entries || cfg.N >= 64 && st.Overflowed == 0 {
		t.Fatalf("%+v: %+v: the log must hold pending and stable entries, and spilled holder sets when wide", cfg, st)
	}
	return l
}

// TestEncodeFromViewMatchesDets: a depinfo reply written from a det.View is
// the frame Dets holding the view's collected entries would be, byte for
// byte, and Size agrees — for a one-word log and a wide one whose holder
// sets spill to the overflow arena, read whole, scoped (also to a receiver
// with no entries) and pending-only.
func TestEncodeFromViewMatchesDets(t *testing.T) {
	for _, cfg := range []det.Config{{N: 32, F: 2}, {N: 100, F: 10}} {
		l := viewLog(t, cfg)
		for _, tc := range []struct {
			name string
			v    det.View
		}{
			{"whole", l.View(nil)},
			{"scoped", l.View([]ids.ProcID{3, 7})},
			{"scoped to a receiver with no entries", l.View([]ids.ProcID{ids.ProcID(cfg.N - 1)})},
			{"pending", l.PendingView()},
		} {
			base := Envelope{Kind: KindDepReply, From: 2, FromInc: 3, Ord: ids.Ordinal{Clock: 9, Proc: 1}, Round: 4}
			fromView, fromDets := base, base
			fromView.DetView = &tc.v
			fromDets.Dets = tc.v.Collect()
			got, want := Encode(&fromView), Encode(&fromDets)
			if !bytes.Equal(got, want) {
				t.Fatalf("N=%d %s: %d-entry view encodes to %d bytes that differ from its collected list's %d",
					cfg.N, tc.name, tc.v.Len(), len(got), len(want))
			}
			if n := Size(&fromView); n != len(got) {
				t.Fatalf("N=%d %s: Size = %d, frame is %d bytes", cfg.N, tc.name, n, len(got))
			}
			if tc.v.Len() == 0 && tc.name != "scoped to a receiver with no entries" {
				t.Fatalf("N=%d %s: empty view", cfg.N, tc.name)
			}
			d, err := Decode(got)
			if err != nil {
				t.Fatal(err)
			}
			if d.DetView != nil || len(d.Dets) != tc.v.Len() {
				t.Fatalf("N=%d %s: decoded %d dets and view %v, want %d dets and no view", cfg.N, tc.name, len(d.Dets), d.DetView, tc.v.Len())
			}
		}
	}
}

// TestEnvelopeDetViewRules: an envelope sets Dets or DetView, never both;
// Clone collects a view into Dets, which outlive the log's next change.
func TestEnvelopeDetViewRules(t *testing.T) {
	l := det.NewLog(det.Config{N: 4, F: 1})
	for ssn := ids.SSN(1); ssn <= 2; ssn++ {
		if err := l.Record(det.Entry{Det: det.Determinant{Msg: ids.MsgID{Sender: 0, SSN: ssn}, Receiver: 1, RSN: ids.RSN(ssn)}, Holders: bitset.FromSlice([]int{1})}); err != nil {
			t.Fatal(err)
		}
	}
	v := l.View(nil)
	both := &Envelope{Kind: KindDepReply, Dets: v.Collect(), DetView: &v}
	if _, err := EncodeChecked(both); !errors.Is(err, ErrTwoDetLists) {
		t.Fatalf("EncodeChecked of an envelope with Dets and DetView: %v, want ErrTwoDetLists", err)
	}
	e := &Envelope{Kind: KindDepReply, DetView: &v}
	c := e.Clone()
	want := v.Collect()
	if c.DetView != nil || !reflect.DeepEqual(c.Dets, want) {
		t.Fatalf("Clone = view %v dets %v, want no view and dets %v", c.DetView, c.Dets, want)
	}
	l.AddHolder(ids.MsgID{Sender: 0, SSN: 1}, 3)
	if c.Dets[0].Holders.Contains(3) {
		t.Fatal("a cloned view's entries alias the log")
	}
}

// TestEnvelopeSizeClass: coord, optimistic and recovery heap-allocate an
// envelope on every Send, so its size is paid per message. Holding DetView
// by pointer keeps it at 224 B, the runtime's 224-byte size class; a 32-byte
// det.View value in its place made it 248 B — the 256-byte class — and
// raised explore_n4_sweep's alloc_mb by 0.9 %.
func TestEnvelopeSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Envelope{}); got > 224 {
		t.Fatalf("unsafe.Sizeof(Envelope{}) = %d B, want at most 224", got)
	}
}
