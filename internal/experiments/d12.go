package experiments

import (
	"context"
	"fmt"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/traffic"
	"rollrec/internal/workload"
)

// D12 drives the open-loop multi-tier traffic engine (DESIGN §12) against
// all three styles and reports what the user sees: the client tier's
// request-to-release percentiles under each style's output-commit rule.
// Open loop is the point — arrivals keep coming at the offered rate no
// matter what the cluster is doing, so commit stalls surface as tail
// latency and downtime surfaces as shed load, exactly as they would for
// an outside caller. The sweep crosses offered load x arrival process,
// and the failure variant crashes a backend mid-run to show the
// straddling requests riding out recovery.
func D12(ctx context.Context, seed int64) Table {
	t := Table{
		ID: "D12",
		Title: fmt.Sprintf("open-loop traffic: user-visible commit latency (n=%d, %d clients / %d frontends / %d backends, fan-out %d)",
			d12Base().N(), d12Base().Clients, d12Base().Frontends, d12Base().Backends, d12Base().FanOut),
		Columns: []string{
			"load", "arrival", "style", "crash", "offered", "shed", "released",
			"client p50", "client p99", "client p99.9",
		},
		Notes: []string{
			"released = client-tier outputs committed within the horizon; the client tier releases",
			"responses in admission order, so one straggling shard holds the line behind it — the",
			"open-loop p99.9 is where the styles' commit rules separate",
		},
	}

	const ffHorizon = 15 * time.Second
	base := d12Base()
	for _, load := range []int{100, 250} {
		tr := base
		tr.Load = load
		for _, row := range styleRows(false) {
			r := MustRun(ctx, d12Spec(seed, row, tr, 0, ffHorizon))
			if ctx.Err() != nil {
				return t
			}
			d12AddRow(&t, tr, row.style, "none", r)
		}
	}

	// Heavy tail: same offered load, bounded-Pareto gaps. Bursts pile
	// requests onto the same window, so the tail stretches with no change
	// in mean load.
	pareto := base
	pareto.Arrival = workload.ArrivalPareto
	for _, row := range styleRows(false) {
		r := MustRun(ctx, d12Spec(seed, row, pareto, 0, ffHorizon))
		if ctx.Err() != nil {
			return t
		}
		d12AddRow(&t, pareto, row.style, "none", r)
	}

	// Failure variant: crash a backend at t=10s under full load. Requests
	// whose shards straddle the crash release only after recovery ends.
	const crashAt = 10 * time.Second
	crash := base
	for _, row := range styleRows(false) {
		r := MustRun(ctx, d12Spec(seed, row, crash, crashAt, 25*time.Second))
		if ctx.Err() != nil {
			return t
		}
		d12AddRow(&t, crash, row.style, fmt.Sprintf("backend@%s", crashAt), r)
		t.Notes = append(t.Notes, d12StraddleNote(row.style, r, crashAt))
	}
	return t
}

// d12Base is the D12 topology: eight processes split 2/2/4 with fan-out 2,
// payloads padded like the D11 client–server. The load levels are set by
// the 1995 profile's per-message CPU cost (1 ms to send or receive), not
// by the 500 µs application work: each request costs a frontend about six
// message handlings, so the two frontends saturate near ~330 req/s before
// logging overhead. 100 req/s is the comfortable cell where the latency
// columns isolate the styles' commit rules; 250 req/s deliberately sits
// at the saturation knee, where open-loop queueing compounds them — the
// regime a closed-loop workload cannot produce at all.
func d12Base() workload.Traffic {
	return workload.Traffic{
		Clients:    2,
		Frontends:  2,
		Backends:   4,
		FanOut:     2,
		Load:       250,
		WorkPerHop: int64(500 * time.Microsecond),
		PayloadPad: 256,
	}
}

// d12Victim is the crash target: the last backend. Clients are excluded on
// FBL soundness grounds (see fbl.Process.Inject) — optimistic logging
// records arrivals as self-entries and could crash anywhere — and a backend
// victim keeps the three styles' failure variants comparable.
func d12Victim(tr workload.Traffic) ids.ProcID { return ids.ProcID(tr.N() - 1) }

// d12Spec is one D12 cell: the traffic spec hosted under row's style on
// era hardware (Spec.Traffic installs the app, Run attaches the engine),
// with the victim backend crashing at crashAt (0 = failure-free).
func d12Spec(seed int64, row styleRow, tr workload.Traffic, crashAt, horizon time.Duration) Spec {
	spec := PaperSpec(recovery.NonBlocking, seed)
	spec.N = tr.N()
	spec.F = row.f
	spec.App = nil
	spec.Traffic = &tr
	spec.Horizon = horizon
	spec.TrackOutputs = true
	if crashAt > 0 {
		spec.Crashes = failure.Plan{{At: crashAt, Proc: d12Victim(tr)}}
	}
	return comparator(spec, row.family)
}

func d12AddRow(t *Table, tr workload.Traffic, style, crash string, r *Result) {
	st := traffic.StatsPerTier(r.C.Outputs(), tr)
	cl := st[workload.TierClient]
	t.AddRow(tr.Load, tr.Arrival, style, crash, r.Traffic.Offered(), r.Traffic.Shed(),
		cl.Committed, cl.P50, cl.P99, cl.P999)
}

func d12StraddleNote(style string, r *Result, crashAt time.Duration) string {
	n, released, first := straddlers(r.C.Outputs(), crashAt)
	return fmt.Sprintf("%s crash: %d outputs straddled it (%d released after), %d arrivals shed; first release t=%s, recovery end t=%s",
		style, n, released, r.Traffic.Shed(), metrics.FmtDuration(first),
		metrics.FmtDuration(r.recoveryEnd(d12Victim(*r.Spec.Traffic))))
}

// D12Timelines reruns the D12 failure variant (backend crash at crashAt
// under the experiment's full 250 req/s offered load; zero values select the
// experiment's 10 s / 25 s cell) under each style with a tiered timeline
// collector attached: the exports carry the per-tier in-flight and
// output-commit series on top of the usual lanes. Sampling is
// observation-only, so each run's event sequence is identical to its
// unsampled D12 counterpart.
func D12Timelines(ctx context.Context, seed int64, interval, crashAt, horizon time.Duration) []Timeline {
	if crashAt <= 0 {
		crashAt = 10 * time.Second
	}
	if horizon <= 0 {
		horizon = 25 * time.Second
	}
	return d12Timelines(ctx, seed, d12Base(), interval, crashAt, horizon)
}

// d12Timelines samples the crash variant of an arbitrary traffic spec (the
// tests use a lighter cell than the experiment's).
func d12Timelines(ctx context.Context, seed int64, tr workload.Traffic, interval, crashAt, horizon time.Duration) []Timeline {
	var out []Timeline
	for _, row := range styleRows(false) {
		style := string(row.family)
		out = append(out, Timeline{ID: "D12", Style: style, Export: sampled(ctx,
			d12Spec(seed, row, tr, crashAt, horizon),
			timeline.Config{
				Interval: interval,
				N:        tr.N(),
				Label:    "D12/" + style + " load=" + fmt.Sprint(tr.Load) + " crash@" + crashAt.String(),
				Tiers:    tr.TierSizes(),
			})})
	}
	return out
}
