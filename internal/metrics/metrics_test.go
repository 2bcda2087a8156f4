package metrics

import (
	"slices"
	"testing"
	"time"

	"rollrec/internal/trace"
)

func TestBlockedAccounting(t *testing.T) {
	p := NewProc()
	if p.Blocked() {
		t.Fatal("fresh proc must not be blocked")
	}
	p.BlockStart(100)
	if !p.Blocked() {
		t.Fatal("BlockStart must open a span")
	}
	p.BlockStart(200) // idempotent: must not reset the start
	p.BlockEnd(600)
	if p.Blocked() {
		t.Fatal("BlockEnd must close the span")
	}
	if p.BlockedTotal() != 500 {
		t.Fatalf("BlockedTotal = %v, want 500ns", p.BlockedTotal())
	}
	if p.BlockedSpans() != 1 {
		t.Fatalf("BlockedSpans = %d, want 1", p.BlockedSpans())
	}
	p.BlockEnd(700) // stray end must be a no-op
	if p.BlockedTotal() != 500 {
		t.Fatalf("stray BlockEnd changed total: %v", p.BlockedTotal())
	}
}

func TestSentReceivedCounters(t *testing.T) {
	p := NewProc()
	p.Sent(1, 100)
	p.Sent(1, 50)
	p.Sent(5, 10)
	p.Received(1, 100)
	if p.MsgsSent[1] != 2 || p.BytesSent[1] != 150 {
		t.Fatalf("kind-1 counters: %d msgs %d bytes", p.MsgsSent[1], p.BytesSent[1])
	}
	msgs, bytes := p.TotalSent()
	if msgs != 3 || bytes != 160 {
		t.Fatalf("TotalSent() = %d, %d", msgs, bytes)
	}
	p.Sent(200, 10) // out-of-range kind must not panic or count
	if m, _ := p.TotalSent(); m != 3 {
		t.Fatal("out-of-range kind must be ignored")
	}
}

func TestStorageOp(t *testing.T) {
	p := NewProc()
	p.StorageOp(true, 1000, time.Millisecond)
	p.StorageOp(false, 500, 2*time.Millisecond)
	if p.StorageWrites != 1 || p.StorageReads != 1 {
		t.Fatal("op counters wrong")
	}
	if p.StorageWriteBytes != 1000 || p.StorageReadBytes != 500 {
		t.Fatal("byte counters wrong")
	}
	if p.StorageTime() != 3*time.Millisecond {
		t.Fatalf("StorageTime = %v", p.StorageTime())
	}
	if p.StorageHist.Count() != 2 {
		t.Fatalf("StorageHist.Count = %d, want 2", p.StorageHist.Count())
	}
	if p.StorageHist.Max() != 2*time.Millisecond {
		t.Fatalf("StorageHist.Max = %v", p.StorageHist.Max())
	}
}

func TestRecoveryTrace(t *testing.T) {
	p := NewProc()
	if p.CurrentRecovery() != nil {
		t.Fatal("no trace expected before a crash")
	}
	p.Recoveries = append(p.Recoveries, RecoveryTrace{CrashedAt: 1000})
	tr := p.CurrentRecovery()
	if tr == nil || tr.CrashedAt != 1000 {
		t.Fatal("CurrentRecovery must return the last trace")
	}
	tr.ReplayedAt = 6000
	if got := p.Recoveries[0].Total(); got != 5000 {
		t.Fatalf("Total = %v, want 5000ns (mutation through pointer must stick)", got)
	}
	if (RecoveryTrace{CrashedAt: 5}).Total() != 0 {
		t.Fatal("incomplete trace must report 0")
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{40, 10, 30, 20}
	if q := Quantile(ds, 0); q != 10 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(ds, 1); q != 40 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(ds, 0.5); q != 25 {
		t.Fatalf("q50 = %v", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	// Input must not be reordered.
	if ds[0] != 40 {
		t.Fatal("Quantile must not mutate its input")
	}
}

// TestExactQuantiles: the rank is floored onto an observed sample, never
// interpolated between two.
func TestExactQuantiles(t *testing.T) {
	ds := []time.Duration{40, 10, 30, 20}
	if q := ExactQuantiles(ds, 0, 500, 990, 1000); !slices.Equal(q, []time.Duration{10, 20, 30, 40}) {
		t.Fatalf("ExactQuantiles = %v", q)
	}
	if q := ExactQuantiles(nil, 500); q[0] != 0 {
		t.Fatalf("empty = %v", q)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{500 * time.Microsecond, "0.50ms"},
		{52 * time.Millisecond, "52.0ms"},
		{4900 * time.Millisecond, "4.90s"},
	}
	for _, c := range cases {
		if got := FmtDuration(c.d); got != c.want {
			t.Errorf("FmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestDerivedAccessorsMatchHandBuiltHistograms cross-checks every histogram-
// derived accessor against a trace.Histogram built by hand from the same
// observations: the accessors are thin views over the distributions, and
// this pins that they stay so (a regression here means double counting or a
// dropped record, not a formatting bug).
func TestDerivedAccessorsMatchHandBuiltHistograms(t *testing.T) {
	p := NewProc()
	var wantBlocked, wantStorage, wantOutput trace.Histogram

	// Three blocking spans with distinct lengths.
	for i, span := range []struct{ from, to int64 }{
		{100, int64(2 * time.Millisecond)},
		{int64(5 * time.Millisecond), int64(6 * time.Millisecond)},
		{int64(10 * time.Millisecond), int64(40 * time.Millisecond)},
	} {
		p.BlockStart(span.from)
		p.BlockEnd(span.to)
		wantBlocked.Record(time.Duration(span.to - span.from))
		if p.Blocked() {
			t.Fatalf("span %d left the proc blocked", i)
		}
	}
	if p.BlockedTotal() != wantBlocked.Total() {
		t.Errorf("BlockedTotal = %v, hand-built total %v", p.BlockedTotal(), wantBlocked.Total())
	}
	if p.BlockedSpans() != wantBlocked.Count() {
		t.Errorf("BlockedSpans = %d, hand-built count %d", p.BlockedSpans(), wantBlocked.Count())
	}
	if got, want := p.BlockedHist.Quantile(0.99), wantBlocked.Quantile(0.99); got != want {
		t.Errorf("blocked p99 = %v, hand-built %v", got, want)
	}

	// Storage ops: totals and distribution must agree with the hand-built
	// histogram, byte/op counters aside.
	for _, op := range []struct {
		write bool
		bytes int
		took  time.Duration
	}{
		{true, 4096, 18 * time.Millisecond},
		{true, 128, time.Millisecond},
		{false, 4096, 9 * time.Millisecond},
	} {
		p.StorageOp(op.write, op.bytes, op.took)
		wantStorage.Record(op.took)
	}
	if p.StorageTime() != wantStorage.Total() {
		t.Errorf("StorageTime = %v, hand-built total %v", p.StorageTime(), wantStorage.Total())
	}
	if p.StorageHist.Count() != wantStorage.Count() || p.StorageHist.Max() != wantStorage.Max() {
		t.Errorf("storage hist n=%d max=%v, hand-built n=%d max=%v",
			p.StorageHist.Count(), p.StorageHist.Max(), wantStorage.Count(), wantStorage.Max())
	}

	// Output commits feed OutputHist one for one.
	for _, d := range []time.Duration{3 * time.Millisecond, 90 * time.Millisecond} {
		p.OutputCommit(d)
		wantOutput.Record(d)
	}
	if p.OutputHist.Count() != wantOutput.Count() || p.OutputHist.Total() != wantOutput.Total() {
		t.Errorf("output hist n=%d total=%v, hand-built n=%d total=%v",
			p.OutputHist.Count(), p.OutputHist.Total(), wantOutput.Count(), wantOutput.Total())
	}
	if got, want := p.OutputHist.String(), wantOutput.String(); got != want {
		t.Errorf("output summary %q, hand-built %q", got, want)
	}
}
