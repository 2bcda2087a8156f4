package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
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

// TestRunRejectsTrafficMisuse: a traffic spec whose topology does not fit
// N, or whose crash plan hits a client, is an error from Run — not a panic
// — and MustRun turns it into a panic rather than returning nil unchecked.
func TestRunRejectsTrafficMisuse(t *testing.T) {
	tr := workload.Traffic{Clients: 2, Frontends: 2, Backends: 4, FanOut: 2, Load: 100}
	for _, tc := range []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
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
