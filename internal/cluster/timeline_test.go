package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/workload"
)

// goldenRunSampled is the pinned golden scenario with a timeline collector
// attached before events flow — same config, same crash plan, same horizon.
func goldenRunSampled(tr trace.Tracer, interval time.Duration) (*Cluster, *timeline.Collector) {
	col := timeline.New(timeline.Config{Interval: interval, N: 4, Label: "golden"})
	c := New(goldenConfig(tr))
	c.AttachTimeline(col)
	c.ApplyPlan(goldenPlan())
	c.Run(goldenHorizon)
	return c, col
}

// TestTimelineSamplingPreservesGoldenHash is the sampler's determinism
// claim, stated at its strongest: sampling ENABLED leaves the golden event
// sequence untouched. The sampler fires between events without scheduling
// anything, so the hashed trace of the sampled run must equal the committed
// golden hash — not merely be self-consistent.
func TestTimelineSamplingPreservesGoldenHash(t *testing.T) {
	lt := newLaneTracer(4)
	c, col := goldenRunSampled(lt, 100*time.Millisecond)
	checkGolden(t, c, lt)
	if want := int(goldenHorizon / (100 * time.Millisecond)); col.Ticks() != want {
		t.Fatalf("collector took %d ticks, want %d (one per boundary to the horizon)", col.Ticks(), want)
	}
}

// TestTimelineExportDeterministic: two sampled runs of the same scenario
// must export byte-identical JSON and CSV.
func TestTimelineExportDeterministic(t *testing.T) {
	render := func() ([]byte, []byte) {
		_, col := goldenRunSampled(trace.Nop{}, 100*time.Millisecond)
		e := col.Export()
		var j, c bytes.Buffer
		if err := e.Encode(&j); err != nil {
			t.Fatal(err)
		}
		if err := e.EncodeCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	j1, c1 := render()
	j2, c2 := render()
	if !bytes.Equal(j1, j2) {
		t.Error("JSON exports of identical runs differ")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("CSV exports of identical runs differ")
	}
	if len(j1) == 0 || len(c1) == 0 {
		t.Fatal("empty export")
	}
}

// TestTimelineSeriesShape checks the sampled series against what the golden
// scenario is known to do: both crash victims read Down at the tick after
// their crash, every crash produces its marker set, and the round-tripped
// export decodes to the same tick count.
func TestTimelineSeriesShape(t *testing.T) {
	_, col := goldenRunSampled(trace.Nop{}, 100*time.Millisecond)
	e := col.Export()

	// Tick i samples boundary (i+1)*interval; the tick right after each
	// crash must show the victim down.
	tickAt := func(d time.Duration) timeline.Tick {
		idx := int(d/(100*time.Millisecond)) + 1 - 1 // boundary index after d, 0-based
		if idx >= len(e.Ticks) {
			t.Fatalf("no tick at %v (have %d)", d, len(e.Ticks))
		}
		return e.Ticks[idx]
	}
	if ph := tickAt(6 * time.Second).Phases; ph[1] != 'D' {
		t.Errorf("tick after first crash: phases %q, want proc 1 down", ph)
	}
	if ph := tickAt(8 * time.Second).Phases; ph[2] != 'D' {
		t.Errorf("tick after second crash: phases %q, want proc 2 down", ph)
	}
	if ph := e.Ticks[0].Phases; ph != "LLLL" {
		t.Errorf("first tick phases %q, want all live", ph)
	}

	for _, want := range []struct {
		kind string
		proc int
	}{
		{timeline.MarkCrash, 1}, {timeline.MarkCrash, 2},
		{timeline.MarkRecoveryEnd, 1}, {timeline.MarkRecoveryEnd, 2},
	} {
		if _, ok := e.MarkerAt(want.kind, want.proc); !ok {
			t.Errorf("missing %s marker for proc %d", want.kind, want.proc)
		}
	}
	cm1, _ := e.MarkerAt(timeline.MarkCrash, 1)
	if cm1.TMS != 6000 {
		t.Errorf("proc 1 crash marker at %v ms, want 6000", cm1.TMS)
	}

	// The workload keeps traffic flowing, so delivery windows must carry
	// observations and the journal must be populated while processes live.
	if e.Ticks[10].Delivery.N == 0 {
		t.Error("delivery window at t=1.1s recorded no observations")
	}
	sawJournal := false
	for _, tk := range e.Ticks {
		for _, j := range tk.Journal {
			if j > 0 {
				sawJournal = true
			}
		}
	}
	if !sawJournal {
		t.Error("determinant journal series never rose above zero")
	}

	var buf bytes.Buffer
	if err := e.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := timeline.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Ticks) != len(e.Ticks) || len(rt.Markers) != len(e.Markers) {
		t.Fatalf("round trip lost rows: %d/%d ticks, %d/%d markers",
			len(rt.Ticks), len(e.Ticks), len(rt.Markers), len(e.Markers))
	}

	// The renderer must cover every lane and the marker legend.
	var sb strings.Builder
	timeline.Render(&sb, e, 80)
	out := sb.String()
	for _, lane := range []string{"queue", "backlog", "dlv_p99", "markers", "X=crash"} {
		if !strings.Contains(out, lane) {
			t.Errorf("render output missing %q lane:\n%s", lane, out)
		}
	}
}

// TestPhaseLaneEveryFamily samples real runs and checks that each phase lane
// shows every phase its family can be in, and no other. FBL's blocking style
// on cmd/fblsim's default scenario (n = 8, f = 2, p3 crashing at 10 s and p5
// at 14.1 s) shows all six, the blocked live processes included; the same
// run under NonBlocking never blocks anyone. D11's crash cells of the
// coordinated and optimistic families (the server, p0, crashing at 10 s)
// know live, recovering and down.
func TestPhaseLaneEveryFamily(t *testing.T) {
	fblsim := func(style recovery.Style) Config {
		return Config{
			N: 8, F: 2, Seed: 1, HW: node.Profile1995(), Style: style,
			App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
			CheckpointEvery: 4 * time.Second,
			StatePad:        1 << 20,
		}
	}
	d11 := func(fam Family) Config {
		cfg := fblsim(recovery.NonBlocking)
		cfg.Family = fam
		cfg.App = workload.NewClientServer(1<<20, 256, int64(time.Millisecond))
		cfg.TrackOutputs = true
		if fam == FamilyOptimistic {
			cfg.CheckpointEvery, cfg.StatePad = 500*time.Millisecond, 4<<10
		}
		return cfg
	}
	twoCrashes := failure.Plan{{At: 10 * time.Second, Proc: 3}, {At: 14100 * time.Millisecond, Proc: 5}}
	serverCrash := failure.Plan{{At: 10 * time.Second, Proc: 0}}
	cases := []struct {
		name              string
		cfg               Config
		plan              failure.Plan
		interval, horizon time.Duration
		want              string // the phase runes seen, sorted
	}{
		{"fbl/blocking", fblsim(recovery.Blocking), twoCrashes, 5 * time.Millisecond, 20 * time.Second, "BDLPRS"},
		{"fbl/nonblocking", fblsim(recovery.NonBlocking), twoCrashes, time.Millisecond, 20 * time.Second, "DLPRS"},
		{"coordinated", d11(FamilyCoordinated), serverCrash, timeline.DefaultInterval, 25 * time.Second, "DLR"},
		{"optimistic", d11(FamilyOptimistic), serverCrash, timeline.DefaultInterval, 25 * time.Second, "DLR"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			col := timeline.New(timeline.Config{Interval: tc.interval, N: tc.cfg.N, Label: tc.name})
			c := New(tc.cfg)
			c.AttachTimeline(col)
			c.ApplyPlan(tc.plan)
			c.Run(tc.horizon)
			var seen [256]bool
			for _, tk := range col.Export().Ticks {
				for i := 0; i < len(tk.Phases); i++ {
					seen[tk.Phases[i]] = true
				}
			}
			var got []byte
			for r, ok := range seen {
				if ok {
					got = append(got, byte(r))
				}
			}
			if string(got) != tc.want {
				t.Errorf("phase lanes show %q, want %q", got, tc.want)
			}
		})
	}
}
