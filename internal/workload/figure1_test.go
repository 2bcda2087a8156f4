package workload

import (
	"testing"

	"rollrec/internal/ids"
)

// pump drives a 3-process Figure1 cluster to quiescence in-memory.
func pumpFigure1(t *testing.T, rounds int) []App {
	t.Helper()
	apps := make([]App, 3)
	ctxs := make([]*fakeCtx, 3)
	f := NewFigure1(rounds)
	for i := range apps {
		apps[i] = f(ids.ProcID(i), 3)
		ctxs[i] = &fakeCtx{self: ids.ProcID(i), n: 3}
	}
	type msg struct {
		from ids.ProcID
		sendRec
	}
	var q []msg
	pump := func(i int) {
		for _, s := range ctxs[i].sends {
			q = append(q, msg{ids.ProcID(i), s})
		}
		ctxs[i].sends = nil
	}
	for i := range apps {
		apps[i].Start(ctxs[i])
		pump(i)
	}
	for len(q) > 0 {
		m := q[0]
		q = q[1:]
		apps[m.to].Handle(ctxs[m.to], m.from, m.image())
		pump(int(m.to))
	}
	return apps
}

func TestFigure1ChainCompletes(t *testing.T) {
	apps := pumpFigure1(t, 5)
	for i, a := range apps {
		if !a.Done() {
			t.Errorf("process %d not done", i)
		}
	}
	// Each round is m → m' → m'' (+ a restart hop between rounds):
	// p sees m ×5, q sees m' ×5 + restart ×4, r sees m'' ×5.
	if got := apps[0].(*Figure1).Seen(); got != 5 {
		t.Errorf("p saw %d messages, want 5", got)
	}
	if got := apps[1].(*Figure1).Seen(); got != 9 {
		t.Errorf("q saw %d messages, want 9", got)
	}
	if got := apps[2].(*Figure1).Seen(); got != 5 {
		t.Errorf("r saw %d messages, want 5", got)
	}
}

func TestFigure1Deterministic(t *testing.T) {
	a := pumpFigure1(t, 7)
	b := pumpFigure1(t, 7)
	for i := range a {
		if a[i].Digest() != b[i].Digest() {
			t.Fatalf("process %d digests differ across identical runs", i)
		}
	}
}

func TestFigure1SnapshotRoundTrip(t *testing.T) {
	apps := pumpFigure1(t, 3)
	snap := apps[1].Snapshot()
	fresh := NewFigure1(3)(1, 3)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Digest() != apps[1].Digest() {
		t.Fatal("snapshot round trip changed the digest")
	}
	if err := fresh.Restore([]byte{1}); err == nil {
		t.Fatal("garbage snapshot must be rejected")
	}
}

func TestFigure1RequiresThreeProcesses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong cluster size must panic")
		}
	}()
	NewFigure1(1)(0, 4)
}
