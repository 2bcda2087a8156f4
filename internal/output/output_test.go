package output

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/trace"
)

func TestLedgerLifecycle(t *testing.T) {
	l := NewLedger(2)
	if !l.Requested(0, 1, 100, []byte("a")) {
		t.Fatal("fresh request rejected")
	}
	if !l.Requested(0, 2, 200, []byte("b")) {
		t.Fatal("second request rejected")
	}
	if l.Total() != 2 || l.Open() != 2 {
		t.Fatalf("total=%d open=%d", l.Total(), l.Open())
	}
	l.Committed(0, 1, 150)
	l.Committed(0, 1, 999) // idempotent: must not move the commit point
	if l.Open() != 1 {
		t.Fatalf("open=%d after one commit", l.Open())
	}
	recs := l.Records()
	if recs[0].Latency() != 50 || recs[0].CommittedAt != 150 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].Committed() {
		t.Fatalf("record 1 committed early: %+v", recs[1])
	}
	if ds := l.Deltas(); len(ds) != 1 || ds[0] != 50*time.Nanosecond {
		t.Fatalf("deltas = %v", ds)
	}
}

func TestLedgerRollbackReRequest(t *testing.T) {
	l := NewLedger(1)
	l.Requested(0, 1, 100, []byte("a"))
	l.Requested(0, 2, 200, []byte("b"))
	l.Committed(0, 1, 150)

	// A rollback re-executes both outputs. Seq 1 already committed: the
	// re-request must be refused so the protocol drops it. Seq 2 is open:
	// the re-request may carry different content but keeps the original
	// request time, so the measured latency spans the crash.
	if l.Requested(0, 1, 1000, []byte("a")) {
		t.Fatal("re-request of committed output accepted")
	}
	if !l.Requested(0, 2, 1000, []byte("b'")) {
		t.Fatal("re-request of open output rejected")
	}
	r := l.Records()[1]
	if r.RequestedAt != 200 {
		t.Fatalf("re-request moved RequestedAt to %d", r.RequestedAt)
	}
	if r.Hash == hash([]byte("b")) {
		t.Fatal("re-request did not track the re-executed content")
	}
	l.Committed(0, 2, 1200)
	if lat := l.Records()[1].Latency(); lat != 1000 {
		t.Fatalf("straddle latency = %d, want 1000", lat)
	}
}

func TestLedgerCommitUpTo(t *testing.T) {
	l := NewLedger(1)
	for s := uint64(1); s <= 4; s++ {
		l.Requested(0, s, int64(s*10), nil)
	}
	l.Committed(0, 2, 25)
	l.CommitUpTo(0, 3, 500)
	if l.Open() != 1 {
		t.Fatalf("open=%d after CommitUpTo(3)", l.Open())
	}
	recs := l.Records()
	if recs[0].CommittedAt != 500 || recs[1].CommittedAt != 25 || recs[2].CommittedAt != 500 {
		t.Fatalf("commit points %d/%d/%d", recs[0].CommittedAt, recs[1].CommittedAt, recs[2].CommittedAt)
	}
	// Beyond the recorded range is clamped, not a panic.
	l.CommitUpTo(0, 99, 600)
	if l.Open() != 0 {
		t.Fatalf("open=%d after clamped CommitUpTo", l.Open())
	}
}

func TestLedgerStraddling(t *testing.T) {
	l := NewLedger(1)
	l.Requested(0, 1, 100, nil)
	l.Requested(0, 2, 200, nil)
	l.Requested(0, 3, 900, nil)
	l.Committed(0, 1, 300) // committed before the crash: not a straddler
	const crash = 500
	l.Committed(0, 2, 800) // requested before, committed after: straddler
	got := l.Straddling(crash)
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("straddling = %+v", got)
	}
}

func TestLedgerTraceAndMetrics(t *testing.T) {
	l := NewLedger(3)
	rec := trace.NewRecorder(16)
	l.SetTracer(rec)
	procs := map[ids.ProcID]*metrics.Proc{2: metrics.NewProc()}
	l.SetMetrics(func(id ids.ProcID) *metrics.Proc { return procs[id] })

	l.Requested(2, 1, 1000, []byte("out"))
	l.Committed(2, 1, 4000)

	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d trace events", len(evs))
	}
	e := evs[0]
	if e.Name != trace.EvOutputCommit || !e.Span || e.TS != 1000 || e.Dur != 3000 || e.Proc != 2 || e.Tag.Arg != 1 {
		t.Fatalf("span = %+v", e)
	}
	if procs[2].OutputHist.Count() != 1 || procs[2].OutputHist.Total() != 3000*time.Nanosecond {
		t.Fatalf("histogram count=%d total=%v", procs[2].OutputHist.Count(), procs[2].OutputHist.Total())
	}
}

func TestLedgerPanicsOnProtocolBugs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	l := NewLedger(1)
	mustPanic("sparse seq", func() { l.Requested(0, 3, 0, nil) })
	mustPanic("zero seq", func() { l.Requested(0, 0, 0, nil) })
	mustPanic("unknown commit", func() { l.Committed(0, 1, 0) })
	mustPanic("proc out of range", func() { l.Requested(5, 1, 0, nil) })
}

// TestCommitAllocs gates the hot path alongside the kernel AllocsPerRun
// gates in CI: every Sink call and the sampler's OldestOpenOf run from the
// per-delivery protocol path, so none may allocate once the history's
// backing array has grown (the warm Requested below).
func TestCommitAllocs(t *testing.T) {
	l := NewLedger(1)
	m := metrics.NewProc()
	l.SetMetrics(func(ids.ProcID) *metrics.Proc { return m })
	const n = 1000
	l.recs[0] = make([]Record, 0, n)
	payload := []byte("out")
	var requested, committed uint64
	var sink int64
	for _, step := range []struct {
		name string
		runs int // AllocsPerRun calls op runs+1 times
		op   func()
	}{
		{"Requested (warm)", n - 1, func() { requested++; l.Requested(0, requested, int64(requested), payload) }},
		{"Requested (open again)", 10, func() { l.Requested(0, n, int64(n), payload) }},
		{"Committed", n/2 - 1, func() { committed++; l.Committed(0, committed, int64(committed)+5) }},
		{"OldestOpenOf", 10, func() { sink += l.OldestOpenOf(0) }},
		{"CommitUpTo", n/2 - 1, func() { committed++; l.CommitUpTo(0, committed, int64(committed)+5) }},
		{"Requested (committed again)", 10, func() { l.Requested(0, 1, int64(n), payload) }},
	} {
		if avg := testing.AllocsPerRun(step.runs, step.op); avg != 0 {
			t.Errorf("%s allocates %.1f per op", step.name, avg)
		}
	}
	if l.Total() != n || l.Open() != 0 || sink != 11*(n/2+1) { // 11 reads of seq n/2+1's request time
		t.Fatalf("setup: %d requested, %d open, oldest-open sum %d", l.Total(), l.Open(), sink)
	}
}
