package timeline

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rollrec/internal/metrics"
)

// TestCollectorWindows drives a collector by hand and checks the tumbling-
// window arithmetic: each tick's distribution covers exactly the
// observations recorded since the previous tick.
func TestCollectorWindows(t *testing.T) {
	m := metrics.NewProc()
	col := New(Config{Interval: 100 * time.Millisecond, N: 1, Label: "unit"})
	col.Bind(Probes{
		Metrics: func(int) *metrics.Proc { return m },
	})

	m.DeliveryHist.Record(2 * time.Millisecond)
	m.DeliveryHist.Record(2 * time.Millisecond)
	col.Tick(int64(100 * time.Millisecond))

	m.DeliveryHist.Record(40 * time.Millisecond)
	col.Tick(int64(200 * time.Millisecond))

	col.Tick(int64(300 * time.Millisecond))

	e := col.Export()
	if len(e.Ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(e.Ticks))
	}
	if n := e.Ticks[0].Delivery.N; n != 2 {
		t.Errorf("window 1 count = %d, want 2", n)
	}
	if n := e.Ticks[1].Delivery.N; n != 1 {
		t.Errorf("window 2 count = %d, want 1 (only the new observation)", n)
	}
	if e.Ticks[1].Delivery.P50MS < 30 {
		t.Errorf("window 2 p50 = %v ms, want ~40 (the window's own value, not the cumulative median)",
			e.Ticks[1].Delivery.P50MS)
	}
	if n := e.Ticks[2].Delivery.N; n != 0 {
		t.Errorf("idle window count = %d, want 0", n)
	}
	if e.Ticks[0].TMS != 100 || e.Ticks[2].TMS != 300 {
		t.Errorf("tick stamps %v/%v, want 100/300 ms", e.Ticks[0].TMS, e.Ticks[2].TMS)
	}
}

// TestCollectorNilProbes: a collector with no probes bound still produces
// well-formed zero rows.
func TestCollectorNilProbes(t *testing.T) {
	col := New(Config{Interval: time.Millisecond, N: 3})
	col.Tick(int64(time.Millisecond))
	e := col.Export()
	if len(e.Ticks) != 1 {
		t.Fatalf("got %d ticks, want 1", len(e.Ticks))
	}
	row := e.Ticks[0]
	if row.Phases != "LLL" || row.Queue != 0 || len(row.Journal) != 3 {
		t.Errorf("zero row malformed: %+v", row)
	}
}

func TestNewValidates(t *testing.T) {
	for _, cfg := range []Config{{Interval: 0, N: 1}, {Interval: time.Second, N: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPhaseRunes(t *testing.T) {
	want := map[Phase]byte{
		PhaseLive: 'L', PhaseBlocked: 'B', PhaseRestoring: 'S',
		PhaseRecovering: 'R', PhaseReplaying: 'P', PhaseDown: 'D',
	}
	for p, r := range want {
		if p.Rune() != r {
			t.Errorf("%v.Rune() = %c, want %c", p, p.Rune(), r)
		}
	}
	if PhaseBlocked.String() != "blocked" {
		t.Errorf("PhaseBlocked.String() = %q", PhaseBlocked.String())
	}
}

// TestDecodeSchemaGate: exports from a newer schema must be refused, not
// silently misread.
func TestDecodeSchemaGate(t *testing.T) {
	newer := strings.Replace(`{"meta":{"schema":SCHEMA,"label":"x","interval_ms":100,"n":1},"ticks":[],"markers":[]}`,
		"SCHEMA", "99", 1)
	if _, err := Decode(strings.NewReader(newer)); err == nil {
		t.Error("Decode accepted a schema-99 export")
	}
	zero := strings.Replace(newer, "99", "0", 1)
	if _, err := Decode(strings.NewReader(zero)); err == nil {
		t.Error("Decode accepted a schema-0 export")
	}
	ok := strings.Replace(newer, "99", "1", 1)
	if _, err := Decode(strings.NewReader(ok)); err != nil {
		t.Errorf("Decode rejected a schema-1 export: %v", err)
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	col := New(Config{Interval: 50 * time.Millisecond, N: 2, Label: "rt"})
	col.Bind(Probes{
		Proc: func(i int) ProcGauges {
			return ProcGauges{
				Phase: PhaseBlocked, Journal: i + 1, Lag: i, StableBytes: 100, Backlog: 2,
				OldestOpen: int64(10 * time.Millisecond),
			}
		},
		Queue:   func() (int, int) { return 7, 3 },
		Markers: func() []Marker { return []Marker{{TMS: 50, Proc: 1, Kind: MarkCrash}} },
	})
	col.Tick(int64(50 * time.Millisecond))
	e := col.Export()

	var buf bytes.Buffer
	if err := e.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tk := got.Ticks[0]
	if tk.Phases != "BB" || tk.Queue != 7 || tk.InFlight != 3 || tk.Journal[1] != 2 || tk.Backlog[0] != 2 {
		t.Errorf("round-tripped tick malformed: %+v", tk)
	}
	// Backlog age: the oldest open output was requested at 10 ms, sampled
	// at 50 ms — a 40 ms age.
	if tk.Oldest[0] != 40 {
		t.Errorf("backlog age = %v ms, want 40", tk.Oldest[0])
	}
	if len(got.Markers) != 1 || got.Markers[0].Kind != MarkCrash {
		t.Errorf("round-tripped markers: %+v", got.Markers)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Error("canonical encoding must end with a newline")
	}
}

func TestCSVShape(t *testing.T) {
	col := New(Config{Interval: 10 * time.Millisecond, N: 2})
	col.Bind(Probes{Proc: func(i int) ProcGauges {
		return ProcGauges{Backlog: i + 1, StableBytes: 5, OldestOpen: int64(time.Millisecond) * int64(1+i)}
	}})
	col.Tick(int64(10 * time.Millisecond))
	var buf bytes.Buffer
	if err := col.Export().EncodeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header+1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_ms,queue,inflight,phases,") {
		t.Errorf("CSV header %q", lines[0])
	}
	cols := strings.Split(lines[1], ",")
	if len(cols) != len(csvHeader) {
		t.Fatalf("CSV row has %d fields, header %d", len(cols), len(csvHeader))
	}
	// backlog column: per-proc 1+2 summed to 3; stable_bytes: 5+5; backlog
	// age: max of the per-proc ages (10ms tick − 1ms/2ms requests → 9 ms).
	if cols[7] != "3" || cols[6] != "10" {
		t.Errorf("CSV sums wrong: stable=%s backlog=%s", cols[6], cols[7])
	}
	if cols[8] != "9" {
		t.Errorf("CSV oldest_open_ms = %s, want the max age 9", cols[8])
	}
}

func TestSortMarkers(t *testing.T) {
	ms := []Marker{
		{TMS: 10, Proc: 0, Kind: MarkRecoveryEnd},
		{TMS: 5, Proc: 1, Kind: MarkCrash},
		{TMS: 10, Proc: 0, Kind: MarkCrash},
		{TMS: 10, Proc: 1, Kind: MarkRestart},
	}
	sortMarkers(ms)
	want := []Marker{
		{TMS: 5, Proc: 1, Kind: MarkCrash},
		{TMS: 10, Proc: 0, Kind: MarkCrash},
		{TMS: 10, Proc: 0, Kind: MarkRecoveryEnd},
		{TMS: 10, Proc: 1, Kind: MarkRestart},
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("order[%d] = %+v, want %+v", i, ms[i], want[i])
		}
	}
}

// TestRecoveryMarkers synthesizes markers from a hand-built recovery trace.
func TestRecoveryMarkers(t *testing.T) {
	m0 := metrics.NewProc()
	m1 := metrics.NewProc()
	m1.Recoveries = append(m1.Recoveries, metrics.RecoveryTrace{
		CrashedAt:   int64(time.Second),
		RestartedAt: int64(1200 * time.Millisecond),
		RestoredAt:  int64(1500 * time.Millisecond),
		GatheredAt:  int64(1700 * time.Millisecond),
		ReplayedAt:  int64(2 * time.Second),
	})
	// A second, unfinished recovery: only the phases reached so far appear.
	m1.Recoveries = append(m1.Recoveries, metrics.RecoveryTrace{
		CrashedAt: int64(3 * time.Second),
	})
	procs := []*metrics.Proc{m0, m1}
	got := RecoveryMarkers(2, func(i int) *metrics.Proc { return procs[i] })
	if len(got) != 6 {
		t.Fatalf("got %d markers, want 6: %+v", len(got), got)
	}
	if got[0].Kind != MarkCrash || got[0].TMS != 1000 || got[0].Proc != 1 {
		t.Errorf("first marker %+v", got[0])
	}
	if got[5].Kind != MarkCrash || got[5].TMS != 3000 {
		t.Errorf("last marker %+v, want the second crash", got[5])
	}
}

func TestSparkPooling(t *testing.T) {
	// 8 values into 4 cells: max-pooling keeps the spike.
	vals := []float64{0, 0, 0, 9, 0, 0, 1, 1}
	s := []rune(Spark(vals, 4))
	if len(s) != 4 {
		t.Fatalf("spark width %d, want 4", len(s))
	}
	if s[0] != ' ' {
		t.Errorf("zero cell rendered %q, want space", s[0])
	}
	if s[1] != '█' {
		t.Errorf("spike cell rendered %q, want full block", s[1])
	}
	if s[3] == ' ' || s[3] == '█' {
		t.Errorf("low cell rendered %q, want a low level", s[3])
	}
	if Spark(nil, 10) != "" {
		t.Error("empty series must render empty")
	}
	// Fewer values than width: one cell per value, no stretching.
	if got := len([]rune(Spark([]float64{1, 2}, 10))); got != 2 {
		t.Errorf("short series rendered %d cells, want 2", got)
	}
}

func TestRenderEmpty(t *testing.T) {
	var sb strings.Builder
	Render(&sb, &Export{Meta: Meta{Label: "empty"}}, 40)
	if !strings.Contains(sb.String(), "no samples") {
		t.Errorf("empty render: %q", sb.String())
	}
}
