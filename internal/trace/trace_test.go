package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
	"time"

	"rollrec/internal/wire"
)

func TestRecorderSpansAndInstants(t *testing.T) {
	r := NewRecorder(64)
	r.Instant(10, 0, EvSend, Tag{Kind: 1, Arg: 42})
	sp := r.Begin(20, 1, EvGather, Tag{Inc: 2})
	r.Instant(25, 1, EvAnnounce, Tag{})
	r.End(sp, 70)

	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	if ev[0].Name != EvSend || ev[0].TS != 10 || ev[0].Tag.Arg != 42 || ev[0].Span {
		t.Errorf("instant event wrong: %+v", ev[0])
	}
	if ev[1].Name != EvGather || !ev[1].Span || ev[1].Open || ev[1].Dur != 50 {
		t.Errorf("span event wrong: %+v", ev[1])
	}
	if ev[1].Tag.Inc != 2 {
		t.Errorf("span lost its tag: %+v", ev[1])
	}
}

func TestRecorderOpenSpanStaysOpen(t *testing.T) {
	r := NewRecorder(8)
	r.Begin(5, 0, EvDown, Tag{})
	ev := r.Events()
	if len(ev) != 1 || !ev[0].Open {
		t.Fatalf("open span not reported open: %+v", ev)
	}
	// Ending SpanRef(0) must be a no-op.
	r.End(0, 100)
	if got := r.Events(); !got[0].Open {
		t.Fatal("End(0) closed an unrelated span")
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	r := NewRecorder(8) // rounds to 8
	sp := r.Begin(0, 0, EvDown, Tag{})
	for i := 0; i < 20; i++ {
		r.Instant(int64(i+1), 0, EvSend, Tag{})
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	if r.Dropped() != 13 { // 21 appended, 8 retained
		t.Fatalf("Dropped = %d, want 13", r.Dropped())
	}
	// The span was evicted: End must not corrupt the ring.
	r.End(sp, 100)
	ev := r.Events()
	if len(ev) != 8 {
		t.Fatalf("got %d events", len(ev))
	}
	for i, e := range ev {
		if e.Name != EvSend {
			t.Fatalf("event %d corrupted after stale End: %+v", i, e)
		}
	}
	// Events must be the newest 8, in order.
	if ev[0].TS != 13 || ev[7].TS != 20 {
		t.Fatalf("wrong window: first %d last %d", ev[0].TS, ev[7].TS)
	}
}

func TestRecorderDoubleEnd(t *testing.T) {
	r := NewRecorder(8)
	sp := r.Begin(10, 0, EvReplay, Tag{})
	r.End(sp, 20)
	r.End(sp, 99) // second End must not stretch the span
	if ev := r.Events(); ev[0].Dur != 10 {
		t.Fatalf("double End changed dur: %+v", ev[0])
	}
}

func TestNopTracer(t *testing.T) {
	var tr Tracer = Nop{}
	if tr.Enabled() {
		t.Fatal("Nop reports enabled")
	}
	sp := tr.Begin(0, 0, EvGather, Tag{})
	if sp != 0 {
		t.Fatalf("Nop.Begin = %d", sp)
	}
	tr.End(sp, 10)
	tr.Instant(0, 0, EvSend, Tag{})
	tr.Span(0, 1, 0, EvStorageRead, Tag{})
	if OrNop(nil) != (Nop{}) {
		t.Fatal("OrNop(nil) != Nop")
	}
	r := NewRecorder(8)
	if OrNop(r) != Tracer(r) {
		t.Fatal("OrNop(r) != r")
	}
}

func TestChromeExportParses(t *testing.T) {
	r := NewRecorder(64)
	r.Instant(1500, 3, EvSend, Tag{Kind: uint8(wire.KindApp), Arg: 64})
	sp := r.Begin(2000, 3, EvGather, Tag{Inc: 2, Arg: 1})
	r.End(sp, 52000)
	r.Begin(60000, -1, EvStorageWrite, Tag{}) // left open; storage proc tid

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	var names []string
	var sawMeta, sawSpan, sawInstant, sawOpen bool
	for _, e := range doc.TraceEvents {
		names = append(names, e["name"].(string))
		switch e["ph"] {
		case "M":
			sawMeta = true
		case "X":
			sawSpan = true
			if args, ok := e["args"].(map[string]any); ok && args["open"] == float64(1) {
				sawOpen = true
				if e["tid"] != float64(storageTID) {
					t.Errorf("storage proc tid = %v, want %d", e["tid"], storageTID)
				}
			}
		case "i":
			sawInstant = true
			if args := e["args"].(map[string]any); args["kind"] != "app" {
				t.Errorf("kind name not applied: %v", args)
			}
		}
	}
	if !sawMeta || !sawSpan || !sawInstant || !sawOpen {
		t.Fatalf("missing event classes (meta=%v span=%v instant=%v open=%v) in %v",
			sawMeta, sawSpan, sawInstant, sawOpen, names)
	}
}

// TestChromeExportOutputCommit pins the span kind the output ledger emits
// (DESIGN §10): one complete event per committed output, spanning request to
// release, so commit latency is visible on the Perfetto timeline.
func TestChromeExportOutputCommit(t *testing.T) {
	r := NewRecorder(8)
	r.Span(1000, 250, 2, EvOutputCommit, Tag{Arg: 7}) // output seq 7
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, e := range doc.TraceEvents {
		if e["name"] != EvOutputCommit || e["ph"] != "X" {
			continue
		}
		if e["dur"] != 0.25 || e["tid"] != float64(2) { // µs in Chrome format
			t.Fatalf("output-commit span mangled: %v", e)
		}
		return
	}
	t.Fatalf("no %q complete event in export: %s", EvOutputCommit, buf.String())
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.String() != "n=0" {
		t.Fatal("zero histogram not zero")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != time.Second {
		t.Fatalf("min %v max %v", h.Min(), h.Max())
	}
	check := func(q, want float64) {
		got := h.Quantile(q).Seconds()
		if got < want*0.90 || got > want*1.10 {
			t.Errorf("p%.0f = %.4fs, want ≈%.4fs (±10%%)", q*100, got, want)
		}
	}
	check(0.50, 0.500)
	check(0.95, 0.950)
	check(0.99, 0.990)
	if h.Quantile(1) != h.Max() || h.Quantile(0) != h.Min() {
		t.Error("quantile extremes not clamped to observed min/max")
	}
	mean := h.Mean()
	if mean < 480*time.Millisecond || mean > 520*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's low value must map back to the same bucket, and
	// bucket lows must be strictly increasing.
	prev := int64(-1)
	for idx := 0; idx < histBuckets; idx++ {
		low := bucketLow(idx)
		if low <= prev {
			t.Fatalf("bucketLow not increasing at %d: %d <= %d", idx, low, prev)
		}
		prev = low
		if got := bucketOf(low); got != idx {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d", idx, got)
		}
	}
	// Random values: the reported bucket low must be within 1/16 below.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := rng.Int63()
		low := bucketLow(bucketOf(v))
		if low > v || v-low > v>>histSubBits {
			t.Fatalf("value %d bucketed to low %d (err > 1/16)", v, low)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(10 * time.Millisecond)
	b.Record(20 * time.Millisecond)
	b.Record(30 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 3 || a.Max() != 30*time.Millisecond || a.Min() != 10*time.Millisecond {
		t.Fatalf("merge wrong: %v", a.String())
	}
	var empty Histogram
	a.Merge(&empty)
	if a.Count() != 3 {
		t.Fatal("merging empty changed count")
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder(64)
	r.Span(0, int64(10*time.Millisecond), 0, EvGather, Tag{})
	r.Span(0, int64(30*time.Millisecond), 1, EvGather, Tag{})
	r.Instant(5, 2, EvAnnounce, Tag{})
	r.Begin(7, 2, EvDown, Tag{}) // open: counted, not timed

	stats := Summarize(r.Events())
	names := make([]string, len(stats))
	for i, s := range stats {
		names[i] = s.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("summary not sorted: %v", names)
	}
	byName := map[string]PhaseStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if g := byName[EvGather]; g.Count != 2 || g.Spans.Count() != 2 || g.Spans.Max() != 30*time.Millisecond {
		t.Errorf("gather stat wrong: %+v", g)
	}
	if d := byName[EvDown]; d.Count != 1 || d.Spans.Count() != 0 {
		t.Errorf("open span must not contribute a duration: %+v", d)
	}

	var buf bytes.Buffer
	if err := WriteSummary(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"phase", EvGather, EvAnnounce, "p95"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestWriteTextGolden pins the text event log byte for byte on hand-built
// events: recording order is kept only among events of one process at one
// instant; time, then process, orders the rest. Closed spans print their
// duration, open spans "open", the storage pseudo-process its label, and a
// tag only its non-zero fields, the kind by its wire name.
func TestWriteTextGolden(t *testing.T) {
	ms := int64(time.Millisecond)
	app := uint8(wire.KindApp)
	events := []Event{
		{TS: 2 * ms, Proc: 1, Name: EvRecv, Tag: Tag{Kind: app, Arg: 290}},
		{TS: 2 * ms, Proc: 0, Name: EvSend, Tag: Tag{Kind: app, Arg: 290}},
		{TS: ms, Proc: 2, Name: EvDown, Span: true, Open: true},
		{TS: 2 * ms, Proc: 1, Name: EvRollback, Tag: Tag{Inc: 5, Arg: 12}},
		{TS: ms, Proc: -1, Name: EvStorageWrite, Span: true, Dur: 3 * ms, Tag: Tag{Arg: 1 << 20}},
		{TS: 0, Proc: 2, Name: EvCrash},
		{TS: ms, Proc: 2, Name: EvRestore, Span: true, Dur: 1500 * ms, Tag: Tag{Inc: 2}},
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, events); err != nil {
		t.Fatal(err)
	}
	const want = `[          0s] p2 crash
[         1ms] p[stable] storage-write dur=3ms arg=1048576
[         1ms] p2 down open
[         1ms] p2 restore dur=1.5s inc=2
[         2ms] p0 send kind=app arg=290
[         2ms] p1 recv kind=app arg=290
[         2ms] p1 rollback inc=5 arg=12
`
	if got := buf.String(); got != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramDelta: diffing two snapshots of one accumulating histogram
// yields exactly the window's observations — the tumbling-window primitive
// the timeline sampler builds its per-tick percentiles on.
func TestHistogramDelta(t *testing.T) {
	var h Histogram
	h.Record(2 * time.Millisecond)
	h.Record(40 * time.Millisecond)
	snap := h.Clone()

	h.Record(100 * time.Millisecond)
	h.Record(100 * time.Millisecond)
	h.Record(7 * time.Second)

	d := h.Delta(&snap)
	if d.Count() != 3 {
		t.Fatalf("window count = %d, want 3 (only post-snapshot records)", d.Count())
	}
	// Values are recovered to bucket resolution (≤ ~6% low).
	if p50 := d.Quantile(0.50); p50 < 90*time.Millisecond || p50 > 100*time.Millisecond {
		t.Errorf("window p50 = %v, want ~100ms", p50)
	}
	if d.Min() < 90*time.Millisecond || d.Min() > 100*time.Millisecond {
		t.Errorf("window min = %v, want ~100ms (pre-snapshot 2ms must not leak in)", d.Min())
	}
	if d.Max() < 6*time.Second || d.Max() > 7*time.Second {
		t.Errorf("window max = %v, want ~7s", d.Max())
	}

	// An idle window is empty, and a self-delta is empty.
	if e := h.Delta(&h); e.Count() != 0 {
		t.Errorf("self-delta count = %d, want 0", e.Count())
	}
	var zero Histogram
	full := h.Delta(&zero)
	if full.Count() != h.Count() {
		t.Errorf("delta against zero lost records: %d vs %d", full.Count(), h.Count())
	}

	// Misuse (prev ahead of h) clamps to empty rather than going negative.
	if bad := snap.Delta(&h); bad.Count() != 0 {
		t.Errorf("reversed delta count = %d, want 0", bad.Count())
	}

	// A record that lands in buckets the snapshot already has (45 ms shares
	// 40 ms's octave, so nothing is reallocated) must not reach the snapshot:
	// buckets are a slice, and only Clone separates them.
	snap = h.Clone()
	h.Record(45 * time.Millisecond)
	if d := h.Delta(&snap); d.Count() != 1 || d.Min() < 40*time.Millisecond || d.Max() > 45*time.Millisecond {
		t.Errorf("same-octave window = %v, want the one 45ms record", d.String())
	}
	if snap.Count() != 5 {
		t.Errorf("snapshot count = %d after a later Record, want 5", snap.Count())
	}
}

// TestChromeExportEmptyRecorder pins the byte-exact Chrome output of an
// empty recorder: a well-formed, deterministic document even when nothing
// was traced.
func TestChromeExportEmptyRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, NewRecorder(16).Events()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "{\"traceEvents\":[\n\n]}\n"
	if got != want {
		t.Fatalf("empty export = %q, want %q", got, want)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty export decoded %d events", len(doc.TraceEvents))
	}
}
