package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/workload"
)

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID:      "T0",
		Title:   "demo",
		Columns: []string{"name", "dur", "count", "ratio"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("x", 34*time.Millisecond, 7, 0.5)
	tab.AddRow("longer-name", 4900*time.Millisecond, 100, 2.0)
	out := tab.String()
	for _, want := range []string{"T0 — demo", "34.0ms", "4.90s", "longer-name", "0.50", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, separator, two rows, one note, plus title line.
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestBreakdownOf(t *testing.T) {
	if b := BreakdownOf(nil); b.Total != 0 {
		t.Fatal("nil trace must give a zero breakdown")
	}
	tr := &metrics.RecoveryTrace{
		CrashedAt:   1000,
		RestartedAt: 4000,
		RestoredAt:  6000,
		GatheredAt:  7000,
		ReplayedAt:  9000,
	}
	b := BreakdownOf(tr)
	if b.DetectRestart != 3000 || b.Restore != 2000 || b.Gather != 1000 ||
		b.Replay != 2000 || b.Total != 8000 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b := BreakdownOf(&metrics.RecoveryTrace{CrashedAt: 5}); b.Total != 0 {
		t.Fatal("incomplete trace must give zero breakdown")
	}
}

// fastSpec is a miniature experiment configuration so the package test
// exercises the full Run/MustRun/Victim/LiveBlocked path in milliseconds.
func fastSpec(style recovery.Style) Spec {
	hw := node.Profile1995()
	hw.WatchdogDetect = 200 * time.Millisecond
	hw.RestartDelay = 50 * time.Millisecond
	hw.SuspectAfter = 300 * time.Millisecond
	hw.HeartbeatEvery = 50 * time.Millisecond
	hw.CPUMsgCost = 50 * time.Microsecond
	hw.CPUByteCost = 0
	hw.Disk.Latency = time.Millisecond
	hw.Disk.ReadBandwidth = 100e6
	hw.Disk.WriteBandwidth = 100e6
	return Spec{
		N: 4, F: 2, Style: style, Seed: 3, HW: hw,
		App:     workload.NewRandomPeer(1, 1_000_000, 32, int64(200*time.Microsecond)),
		CPEvery: 500 * time.Millisecond,
		Pad:     8 << 10,
		Crashes: failure.Plan{{At: time.Second, Proc: 1}},
		Horizon: 5 * time.Second,
	}
}

func TestRunCollectsVictimAndBlocked(t *testing.T) {
	r := MustRun(context.Background(), fastSpec(recovery.Blocking))
	tr := r.Victim(1)
	if tr == nil || tr.ReplayedAt == 0 {
		t.Fatal("victim trace incomplete")
	}
	mean, max := r.LiveBlocked()
	if mean == 0 || max < mean {
		t.Fatalf("blocked stats wrong: mean=%v max=%v", mean, max)
	}
	msgs, bytes := r.RecoveryTraffic()
	if msgs == 0 || bytes == 0 {
		t.Fatal("recovery traffic must be counted")
	}
}

// TestLiveBlocked: the mean and max are over the processes the crash plan
// never touches, and a plan that touches all of them reports zeros.
func TestLiveBlocked(t *testing.T) {
	spec := fastSpec(recovery.Blocking)
	spec.N = 3
	c := cluster.New(cluster.Config{N: spec.N, F: spec.F, HW: spec.HW, App: spec.App})
	for i, d := range []time.Duration{100, 300, 1000} {
		c.Metrics(ids.ProcID(i)).BlockedHist.Record(d)
	}
	for _, tc := range []struct {
		crashed   []ids.ProcID
		mean, max time.Duration
	}{
		{nil, 466, 1000},
		{[]ids.ProcID{2}, 200, 300},
		{[]ids.ProcID{0, 1, 2}, 0, 0},
	} {
		spec.Crashes = nil
		for _, p := range tc.crashed {
			spec.Crashes = append(spec.Crashes, failure.Crash{At: time.Second, Proc: p})
		}
		r := &Result{C: c, Spec: spec}
		if mean, max := r.LiveBlocked(); mean != tc.mean || max != tc.max {
			t.Errorf("crashed %v: LiveBlocked = %v, %v; want %v, %v", tc.crashed, mean, max, tc.mean, tc.max)
		}
	}
}

func TestNonBlockingRunBlocksNobody(t *testing.T) {
	r := MustRun(context.Background(), fastSpec(recovery.NonBlocking))
	if mean, max := r.LiveBlocked(); mean != 0 || max != 0 {
		t.Fatalf("nonblocking run blocked lives: mean=%v max=%v", mean, max)
	}
}

// TestSlowDiskReplayAsksOnStall runs D2's x16 Manetho cell: both victims
// lose their checkpoints and replay their whole histories, and p3's replay
// waits on what p5 regenerates in its own. Each stalled second p3 asks every
// peer again, and every peer serves the whole suffix past what p3 consumed.
// A retry that fires while replay still advances floods p3 with duplicates:
// neither victim then finishes its replay by the horizon. Both must finish,
// and the row D2 prints (EXPERIMENTS.md) is pinned to its hundredths of a
// second: p3 30.50 s, p5 20.05 s, mean live blocked 12.73 s.
func TestSlowDiskReplayAsksOnStall(t *testing.T) {
	spec := PaperSpec(recovery.Manetho, 1)
	spec.HW.Disk = spec.HW.Disk.Scale(16)
	spec.Crashes = failure.Plan{{At: 10 * time.Second, Proc: 3}, {At: 20500 * time.Millisecond, Proc: 5}}
	spec.Horizon = 90 * time.Second
	r := MustRun(context.Background(), spec)
	mean, _ := r.LiveBlocked()
	for _, got := range []struct {
		what      string
		have, pin time.Duration
	}{
		{"p3's recovery", r.Victim(3).Total(), 30500 * time.Millisecond},
		{"p5's recovery", r.Victim(5).Total(), 20050 * time.Millisecond},
		{"mean live blocked", mean, 12730 * time.Millisecond},
	} {
		if got.have.Round(10*time.Millisecond) != got.pin {
			t.Errorf("%s took %v, want %v (0 is a recovery that never finished)", got.what, got.have, got.pin)
		}
	}
}

// TestRunRejectsBadSpec: a spec that cluster.New or the sharded kernel would
// refuse with a panic — a size outside [2, MaxProcs], an unknown family, a
// hardware profile without a positive network latency (the window width) —
// or that the run would not honour as written — a crash it never applies, a
// knob it silently clamps, a value that panics mid-run — is an error from Run
// before anything is built, and MustRun panics with the same message.
func TestRunRejectsBadSpec(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"n below 2", func(s *Spec) { s.N = 1 }, "cluster size n=1 out of range"},
		{"n above MaxProcs", func(s *Spec) { s.N = cluster.MaxProcs + 1 }, "cluster size n=1025 out of range"},
		{"unknown family", func(s *Spec) { s.Family = "bogus" }, `unknown family "bogus"`},
		{"zero latency", func(s *Spec) { s.HW.Net.Latency = 0 }, "network latency 0s"},
		{"negative latency", func(s *Spec) { s.HW.Net.Latency = -time.Millisecond }, "network latency -1ms"},
		{"crash before the start", func(s *Spec) { s.Crashes[0].At = -time.Second }, "plan entry 0 (proc 1, step 0, at -1s) is outside the n=4 cluster or before its start"},
		{"victim outside the cluster", func(s *Spec) { s.Crashes[0].Proc = 9 }, "plan entry 0 (proc 9, step 0, at 1s) is outside the n=4 cluster"},
		{"storage victim at f = n", func(s *Spec) { s.F, s.Crashes[0].Proc = 4, ids.StorageProc }, "plan entry 0 (proc -1, step 0, at 1s) is outside"},
		{"crash after the horizon", func(s *Spec) { s.Crashes[0].At = 9 * time.Second }, "plan entry 0 (proc 1, step 0, at 9s) is after the horizon 5s"},
		{"unknown style", func(s *Spec) { s.Style = 7 }, "unknown recovery style(7)"},
		{"f below one", func(s *Spec) { s.F = 0 }, "failure budget f=0, want >= 1"},
		{"negative pad", func(s *Spec) { s.Pad = -5 }, "state padding -5 out of range"},
		{"negative checkpoint interval", func(s *Spec) { s.CPEvery = -time.Second }, "checkpoint interval -1s is negative"},
		{"step crash on two shards", func(s *Spec) { s.Shards, s.Crashes = 2, failure.Plan{{Step: 50, Proc: 1}} }, "is step-indexed, which needs one shard, not 2"},
		{"timeline for another n", func(s *Spec) { s.Timeline = timeline.New(timeline.Config{Interval: time.Second, N: 3}) }, "timeline collector for n=3, spec has n=4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := fastSpec(recovery.NonBlocking)
			tc.mutate(&spec)
			err := func() error {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Run panicked: %v", p)
					}
				}()
				r, err := Run(context.Background(), spec)
				if r != nil {
					t.Fatal("Run returned a result for a rejected spec")
				}
				return err
			}()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run error = %v, want one containing %q", err, tc.wantErr)
			}
			defer func() {
				if p := recover(); fmt.Sprint(p) != err.Error() {
					t.Fatalf("MustRun panicked with %v, want %q", p, err)
				}
			}()
			MustRun(context.Background(), spec)
		})
	}
}

// FuzzSpecValidate: Validate is total — a spec it accepts builds and runs
// for a virtual second without panicking. Durations are in milliseconds,
// so a run stays a few thousand events; clusters above n = 8 are built but
// not run, which would cost seconds per input. The seeds are the refusal
// rows of TestRunRejectsBadSpec, a step crash on two shards, and fastSpec.
func FuzzSpecValidate(f *testing.F) {
	// n, f, style, shards, pad, checkpoint ms, horizon ms, victim, crash ms, crash step
	f.Add(int8(4), int8(2), int8(0), int8(0), 8<<10, int32(500), int32(5000), int32(1), int32(1000), int64(0))
	f.Add(int8(4), int8(2), int8(0), int8(0), 8<<10, int32(500), int32(5000), int32(1), int32(-1000), int64(0))
	f.Add(int8(4), int8(2), int8(0), int8(0), 8<<10, int32(500), int32(5000), int32(9), int32(1000), int64(0))
	f.Add(int8(4), int8(4), int8(0), int8(0), 8<<10, int32(500), int32(5000), int32(ids.StorageProc), int32(1000), int64(0))
	f.Add(int8(4), int8(2), int8(0), int8(0), 8<<10, int32(500), int32(5000), int32(1), int32(9000), int64(0))
	f.Add(int8(4), int8(2), int8(7), int8(0), 8<<10, int32(500), int32(5000), int32(1), int32(1000), int64(0))
	f.Add(int8(4), int8(0), int8(0), int8(0), 8<<10, int32(500), int32(5000), int32(1), int32(1000), int64(0))
	f.Add(int8(4), int8(2), int8(0), int8(0), -5, int32(500), int32(5000), int32(1), int32(1000), int64(0))
	f.Add(int8(4), int8(2), int8(0), int8(0), 8<<10, int32(-1000), int32(5000), int32(1), int32(1000), int64(0))
	f.Add(int8(4), int8(2), int8(0), int8(2), 8<<10, int32(500), int32(5000), int32(1), int32(0), int64(50))
	f.Fuzz(func(t *testing.T, n, fBudget, style, shards int8, pad int, cpMS, horizonMS, victim, atMS int32, step int64) {
		spec := fastSpec(recovery.Style(style))
		spec.N, spec.F, spec.Shards, spec.Pad = int(n), int(fBudget), int(shards), pad
		spec.CPEvery = time.Duration(cpMS) * time.Millisecond
		spec.Horizon = time.Duration(horizonMS) * time.Millisecond
		spec.Crashes = failure.Plan{{At: time.Duration(atMS) * time.Millisecond, Proc: ids.ProcID(victim), Step: step}}
		if spec.Validate() != nil {
			return
		}
		r, err := Build(spec, nil)
		if err != nil {
			t.Fatalf("Build refused a spec Validate accepted: %v", err)
		}
		if spec.N <= 8 {
			r.C.Run(time.Second)
		}
	})
}

// TestRunRejectsTrafficMisuse: a traffic spec that breaks one of
// Traffic.Validate's rules, whose topology does not fit N, or whose crash
// plan hits a client, is an error from Run — not a panic — and MustRun turns
// it into a panic rather than returning nil unchecked.
func TestRunRejectsTrafficMisuse(t *testing.T) {
	tr := workload.Traffic{Clients: 2, Frontends: 2, Backends: 4, FanOut: 2, Load: 100}
	// config changes one field of the traffic spec and sizes N to match, so
	// only the rule under test is broken.
	config := func(change func(*workload.Traffic)) func(*Spec) {
		return func(s *Spec) {
			bad := *s.Traffic
			change(&bad)
			s.Traffic, s.N = &bad, bad.N()
		}
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"zero clients", config(func(w *workload.Traffic) { w.Clients = 0 }), "tiers 0/2/4"},
		{"zero frontends", config(func(w *workload.Traffic) { w.Frontends = 0 }), "tiers 2/0/4"},
		{"zero backends", config(func(w *workload.Traffic) { w.Backends, w.FanOut = 0, 1 }), "tiers 2/2/0"},
		{"fan-out 0", config(func(w *workload.Traffic) { w.FanOut = 0 }), "fan-out 0 out of range [1,4]"},
		{"fan-out above the backends", config(func(w *workload.Traffic) { w.FanOut = 5 }), "fan-out 5 out of range [1,4]"},
		{"zero load", config(func(w *workload.Traffic) { w.Load = 0 }), "load 0 req/s"},
		{"negative load", config(func(w *workload.Traffic) { w.Load = -1 }), "load -1 req/s"},
		{"unknown arrival", config(func(w *workload.Traffic) { w.Arrival = workload.ArrivalPareto + 1 }), "unknown arrival process 2"},
		{"topology/N mismatch", func(s *Spec) { s.N = 6 }, "traffic topology needs n=8"},
		{"crash targets a client", func(s *Spec) { s.Crashes = failure.Plan{{At: time.Second, Proc: 0}} }, "targets client 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := fastSpec(recovery.NonBlocking)
			spec.N, spec.App, spec.Traffic, spec.Crashes = tr.N(), nil, &tr, nil
			tc.mutate(&spec)
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Run panicked: %v", p)
					}
				}()
				r, err := Run(context.Background(), spec)
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Run error = %v, want one containing %q", err, tc.wantErr)
				}
				if r != nil {
					t.Fatal("Run returned a result for a rejected spec")
				}
			}()
			defer func() {
				if recover() == nil {
					t.Fatal("MustRun returned on a rejected spec")
				}
			}()
			MustRun(context.Background(), spec)
		})
	}
}

// TestRegistryIsTheSuite: the one registry, which All runs and
// cmd/experiments lists, holds every table of DESIGN §3 in order — D12
// included, which the suite once skipped.
func TestRegistryIsTheSuite(t *testing.T) {
	want := []string{"E1", "E2"}
	for i := 1; i <= 12; i++ {
		want = append(want, fmt.Sprintf("D%d", i))
	}
	var got []string
	for _, e := range Registry {
		if e.Desc == "" || e.Run == nil {
			t.Errorf("%s: empty description or run", e.ID)
		}
		got = append(got, e.ID)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registry ids = %v, want %v", got, want)
	}
}
