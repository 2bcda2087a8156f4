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

// TestEncodeFromViewMatchesDets: a depinfo reply written from a list reading
// a det.View is the frame Dets holding the view's collected entries would be,
// byte for byte, and Size agrees — for a one-word log and a wide one whose holder
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
			fromView.DetList = new(DetList)
			fromView.DetList.SetView(tc.v)
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
			if d.DetList != nil || len(d.Dets) != tc.v.Len() {
				t.Fatalf("N=%d %s: decoded %d dets and list %v, want %d dets and no list", cfg.N, tc.name, len(d.Dets), d.DetList, tc.v.Len())
			}
		}
	}
}

// listEntries are determinants whose holder sets take every holder-set
// encoding: empty, dense-u8, dense-u16, sparse and runs.
func listEntries() []det.Entry {
	wide := bitset.New(70_001) // elements past u16: dense-u16 only
	for i := 0; i <= 70_000; i += 2 {
		wide.Add(i)
	}
	sets := []bitset.Set{{}, bitset.FromSlice([]int{1, 63, 200}), wide,
		bitset.FromSlice([]int{3, 500, 1024}), rangeSet(0, 1024)}
	out := make([]det.Entry, len(sets))
	for i, s := range sets {
		out[i] = det.Entry{Det: det.Determinant{Msg: ids.MsgID{Sender: ids.ProcID(i), SSN: ids.SSN(9 + i)}, Receiver: 2, RSN: ids.RSN(i + 1)}, Holders: s}
	}
	return out
}

// TestEncodeFromListMatchesDets: a piggyback encoded entry by entry into a
// DetList is the frame Dets holding the same entries gives, byte for byte,
// for every holder-set encoding; Size is the frame's length, and the frame
// decodes back to the entries. An emptied list is no list at all.
func TestEncodeFromListMatchesDets(t *testing.T) {
	entries := listEntries()
	for i, tag := range []uint8{0, 4, holderTagDenseU16, holderTagSparse, holderTagRuns} {
		if got, _, _ := holderEnc(entries[i].Holders); got != tag {
			t.Fatalf("entry %d takes tag %d, want %d", i, got, tag)
		}
	}
	var l DetList
	for _, k := range []int{len(entries), 1, 0} {
		l.Reset()
		for _, en := range entries[:k] {
			l.Add(en)
		}
		base := Envelope{Kind: KindApp, From: 1, FromInc: 2, SSN: 3, Dseq: 4, Payload: []byte{5}, CPRsn: 6}
		fromList, fromDets := base, base
		fromList.DetList = &l
		if k > 0 {
			fromDets.Dets = entries[:k]
		}
		got, err := EncodeChecked(&fromList)
		if err != nil {
			t.Fatal(err)
		}
		if want := Encode(&fromDets); !bytes.Equal(got.Data, want) {
			t.Fatalf("%d entries: the list encodes to\n%x\nDets to\n%x", k, got.Data, want)
		}
		if n := Size(&fromList); n != len(got.Data) {
			t.Fatalf("%d entries: Size = %d, frame is %d bytes", k, n, len(got.Data))
		}
		d, err := Decode(got.Data)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Dets) != k {
			t.Fatalf("%d entries: decoded %d", k, len(d.Dets))
		}
		for i := range d.Dets {
			if d.Dets[i].Det != entries[i].Det || !d.Dets[i].Holders.Equal(entries[i].Holders) {
				t.Fatalf("%d entries: entry %d decodes to %v, want %v", k, i, d.Dets[i], entries[i])
			}
		}
	}
}

// TestEnvelopeDetViewRules: an envelope sets Dets or a DetList, never both,
// whether the list is encoded entries or a view; Clone turns either list
// into Dets, which outlive the list's next refill and the log's next change.
func TestEnvelopeDetViewRules(t *testing.T) {
	l := det.NewLog(det.Config{N: 4, F: 1})
	for ssn := ids.SSN(1); ssn <= 2; ssn++ {
		if err := l.Record(det.Entry{Det: det.Determinant{Msg: ids.MsgID{Sender: 0, SSN: ssn}, Receiver: 1, RSN: ids.RSN(ssn)}, Holders: bitset.FromSlice([]int{1})}); err != nil {
			t.Fatal(err)
		}
	}
	v := l.View(nil)
	want := v.Collect()
	var viewed, encoded DetList
	viewed.SetView(v)
	l.ScanPendingModified(0, encoded.Add)
	for i, list := range []*DetList{&viewed, &encoded} {
		both := &Envelope{Kind: KindDepReply, Dets: want, DetList: list}
		if _, err := EncodeChecked(both); !errors.Is(err, ErrTwoDetLists) {
			t.Fatalf("EncodeChecked of an envelope with Dets and a DetList: %v, want ErrTwoDetLists", err)
		}
		c := (&Envelope{Kind: KindDepReply, DetList: list}).Clone()
		if c.DetList != nil || !reflect.DeepEqual(c.Dets, want) {
			t.Fatalf("Clone = list %v dets %v, want no list and dets %v", c.DetList, c.Dets, want)
		}
		l.AddHolder(ids.MsgID{Sender: 0, SSN: 1}, ids.ProcID(3-i))
		list.Reset()
		l.View(nil).Each(list.Add)
		if !reflect.DeepEqual(c.Dets, want) {
			t.Fatal("a cloned list's entries alias the log or the list")
		}
	}
}

// TestDetListAllocs: a list refilled with as many entries as it held before
// allocates nothing — Reset keeps the array, Add writes into it.
func TestDetListAllocs(t *testing.T) {
	entries := listEntries()
	var l DetList
	fill := func() {
		l.Reset()
		for _, en := range entries {
			l.Add(en)
		}
	}
	if got := testing.AllocsPerRun(100, fill); got != 0 {
		t.Fatalf("a warm Reset and %d Adds allocate %.1f times, want 0", len(entries), got)
	}
}

// TestEnvelopeSizeClass: coord, optimistic and recovery heap-allocate an
// envelope on every Send, so its size is paid per message. Holding DetList
// by pointer keeps it at 224 B, the runtime's 224-byte size class; a 32-byte
// det.View value in its place made it 248 B — the 256-byte class — and
// raised explore_n4_sweep's alloc_mb by 0.9 %.
func TestEnvelopeSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Envelope{}); got > 224 {
		t.Fatalf("unsafe.Sizeof(Envelope{}) = %d B, want at most 224", got)
	}
}
