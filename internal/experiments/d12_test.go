package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rollrec/internal/traffic"
	"rollrec/internal/workload"
)

// d12TestTraffic is the lighter cell the tests drive: same 2/2/4 topology
// as the experiment, well under its 250 req/s heavy cell so the suite
// stays fast.
func d12TestTraffic() workload.Traffic {
	tr := d12Base()
	tr.Load = 150
	return tr
}

// TestD12Deterministic runs the failure-free style trio twice at a short
// horizon and demands identical tables: the open-loop engine must be a
// pure function of (seed, spec).
func TestD12Deterministic(t *testing.T) {
	tr := d12TestTraffic()
	render := func() string {
		var out string
		for _, row := range styleRows(false) {
			r := MustRun(context.Background(), d12Spec(1, row, tr, 0, 6*time.Second))
			st := traffic.StatsPerTier(r.C.Outputs(), tr)
			cl := st[workload.TierClient]
			if cl.Committed == 0 {
				t.Errorf("%s: no client outputs committed", row.style)
			}
			if r.Traffic.Offered() == 0 {
				t.Errorf("%s: engine offered nothing", row.style)
			}
			out += fmt.Sprintf("%s %d %d %d %v %v %v\n",
				row.style, r.Traffic.Offered(), r.Traffic.Shed(), cl.Committed, cl.P50, cl.P99, cl.P999)
		}
		return out
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("two identical D12 runs disagree:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestD12CrashUnderLoadStraddlers is the failure-variant invariant under
// open-loop load: with a backend crashed mid-run, (a) the victim's
// straddling outputs release only after its recovery completes, and (b)
// user-visible releases stall — the client tier releases in admission
// order, so once a request's shard is stuck on the dead backend the
// release cursor freezes, and requests admitted before the crash come out
// only after recovery ends.
func TestD12CrashUnderLoadStraddlers(t *testing.T) {
	const crashAt = 3 * time.Second
	tr := d12TestTraffic()
	victim := d12Victim(tr)
	r := MustRun(context.Background(), d12Spec(1, styleRows(false)[0], tr, crashAt, 12*time.Second))
	led, recoveryEnd := r.C.Outputs(), r.recoveryEnd(victim)
	if recoveryEnd <= crashAt {
		t.Fatalf("victim never recovered (recovery end %v)", recoveryEnd)
	}
	victimStr := 0
	for _, rec := range led.Straddling(int64(crashAt)) {
		if rec.Proc != victim {
			continue
		}
		victimStr++
		if rec.Committed() && time.Duration(rec.CommittedAt) < recoveryEnd {
			t.Errorf("victim output %d/%d committed at %v, before recovery ended at %v",
				rec.Proc, rec.Seq, time.Duration(rec.CommittedAt), recoveryEnd)
		}
	}
	if victimStr == 0 {
		t.Error("no victim outputs straddled the crash; the scenario lost its point")
	}

	// The client-side ledger record opens at release time (the app requests
	// the output when the reply reaches the head of the admission queue),
	// so the stall shows up as a gap in RequestedAt: in-flight requests
	// drain within the grace window, then nothing releases until the
	// victim has recovered and the stuck shards replay.
	grace := int64(crashAt + 500*time.Millisecond)
	resumed := false
	for _, rec := range led.Records() {
		if tr.TierOf(rec.Proc) != workload.TierClient {
			continue
		}
		if rec.RequestedAt >= grace && rec.RequestedAt < int64(recoveryEnd) {
			t.Errorf("client %d released output %d at %v, inside the outage stall",
				rec.Proc, rec.Seq, time.Duration(rec.RequestedAt))
		}
		if rec.RequestedAt >= int64(recoveryEnd) && rec.Committed() {
			resumed = true
		}
	}
	if !resumed {
		t.Error("client releases never resumed after recovery")
	}
	if st := traffic.StatsPerTier(led, tr); st[workload.TierClient].Committed == 0 {
		t.Error("no client outputs committed at all")
	}
}

// d12TestTimelines samples the short crash cell (backend crash at 3 s,
// 12 s horizon) at the test load.
func d12TestTimelines(t *testing.T) []D12Timeline {
	t.Helper()
	return d12Timelines(context.Background(), 1, d12TestTraffic(),
		100*time.Millisecond, 3*time.Second, 12*time.Second)
}

// TestD12TimelinesDeterministic: two invocations of the sampled cells must
// export byte-identical JSON and CSV for every style (run under -cpu 1,4
// in CI: GOMAXPROCS must not leak into the series).
func TestD12TimelinesDeterministic(t *testing.T) {
	render := func() map[string][2][]byte {
		out := map[string][2][]byte{}
		for _, tl := range d12TestTimelines(t) {
			var j, c bytes.Buffer
			if err := tl.Export.Encode(&j); err != nil {
				t.Fatal(err)
			}
			if err := tl.Export.EncodeCSV(&c); err != nil {
				t.Fatal(err)
			}
			out[tl.Style] = [2][]byte{j.Bytes(), c.Bytes()}
		}
		return out
	}
	a, b := render(), render()
	for style, fa := range a {
		fb := b[style]
		if !bytes.Equal(fa[0], fb[0]) {
			t.Errorf("%s: JSON exports differ across identical runs", style)
		}
		if !bytes.Equal(fa[1], fb[1]) {
			t.Errorf("%s: CSV exports differ across identical runs", style)
		}
	}
}

// TestD12TimelinesTiered: D12 exports carry the v2 per-tier series — the
// tier partition in meta, per-tier in-flight gauges that are actually
// non-zero under load, and per-tier output windows with client-tier
// observations.
func TestD12TimelinesTiered(t *testing.T) {
	tr := d12TestTraffic()
	for _, tl := range d12TestTimelines(t) {
		e := tl.Export
		if got, want := fmt.Sprint(e.Meta.Tiers), fmt.Sprint(tr.TierSizes()); got != want {
			t.Errorf("%s: meta tiers %s, want %s", tl.Style, got, want)
			continue
		}
		sawInflight, sawClientDist := false, false
		for _, tk := range e.Ticks {
			if len(tk.InflightReq) != 3 || len(tk.TierOutput) != 3 {
				t.Errorf("%s: tick t=%v has %d/%d tier lanes, want 3/3",
					tl.Style, tk.TMS, len(tk.InflightReq), len(tk.TierOutput))
				break
			}
			if tk.InflightReq[workload.TierClient] > 0 {
				sawInflight = true
			}
			if tk.TierOutput[workload.TierClient].N > 0 {
				sawClientDist = true
			}
		}
		if !sawInflight {
			t.Errorf("%s: client tier never held an open request", tl.Style)
		}
		if !sawClientDist {
			t.Errorf("%s: client tier never recorded an output window", tl.Style)
		}
	}
}
