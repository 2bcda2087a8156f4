package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// D11 measures the output-commit latency (DESIGN §10) each style imposes on
// a client–server workload: how long an externally-visible reply waits
// between the server producing it and the protocol's commit rule allowing
// its release. This is where the paper's thesis lands for applications: FBL
// satisfies the rule by replication (determinants at f+1 hosts, no stable-
// storage write on the path), coordinated checkpointing waits for the next
// committed snapshot, and optimistic logging waits for the causal past to
// flush. The failure variant crashes the server mid-run and shows that
// outputs straddling the crash are released only after recovery completes.
func D11(ctx context.Context, seed int64) Table {
	t := Table{
		ID:    "D11",
		Title: "output-commit latency across styles (client–server, n=8)",
		Columns: []string{
			"profile", "style", "crash", "outputs", "committed",
			"commit mean", "p50", "p99",
		},
		Notes: []string{
			"FBL commits when the antecedent determinants reach f+1 hosts — replication over the",
			"existing piggyback channel, no synchronous stable write; stability returns on the next",
			"exchange, so latency is a couple of network round trips (one fewer at f=1);",
			"coordinated waits for the snapshot period; optimistic for the causal past to flush",
		},
	}

	const ffHorizon = 15 * time.Second
	for _, prof := range []struct {
		name string
		hw   node.Hardware
	}{{"1995", node.Profile1995()}, {"modern", node.ProfileModern()}} {
		for _, row := range styleRows(true) {
			r := MustRun(ctx, d11Spec(seed, prof.hw, row, 0, ffHorizon))
			if ctx.Err() != nil {
				return t
			}
			st := d11StatsOf(r.C.Outputs())
			t.AddRow(prof.name, row.style, "none", st.total, st.committed,
				st.mean, st.p50, st.p99)
		}
	}

	// Failure variant (era hardware): crash the server at t=10s. The ledger
	// keeps each straddling output's original request time, so its latency
	// spans the whole outage — released only once recovery completes.
	const crashAt = 10 * time.Second
	for _, row := range styleRows(false) {
		r := MustRun(ctx, d11Spec(seed, node.Profile1995(), row, crashAt, 25*time.Second))
		if ctx.Err() != nil {
			return t
		}
		st := d11StatsOf(r.C.Outputs())
		t.AddRow("1995", row.style, "server@10s", st.total, st.committed,
			st.mean, st.p50, st.p99)
		t.Notes = append(t.Notes, d11StraddleNote(row.style, r, crashAt))
	}
	return t
}

// d11Spec is one D11 cell: the client–server workload under row's style,
// with the server crashing at crashAt (0 = failure-free).
func d11Spec(seed int64, hw node.Hardware, row styleRow, crashAt, horizon time.Duration) Spec {
	spec := PaperSpec(recovery.NonBlocking, seed)
	spec.HW = hw
	spec.F = row.f
	spec.App = d11App()
	spec.Horizon = horizon
	spec.TrackOutputs = true
	if crashAt > 0 {
		spec.Crashes = failure.Plan{{At: crashAt, Proc: 0}}
	}
	return comparator(spec, row.family)
}

// d11App is the shared workload: every client pipelines requests at the
// server forever (K exceeds what any horizon can drain), the server's
// replies are the externally-visible outputs.
func d11App() workload.Factory {
	return workload.NewClientServer(1<<20, 256, int64(time.Millisecond))
}

type d11Stats struct {
	total, committed int
	mean, p50, p99   time.Duration
}

// d11StatsOf reduces a ledger to the table's row quantities. Quantiles are
// exact (sorted deltas), not histogram-bucketed.
func d11StatsOf(l *output.Ledger) d11Stats {
	ds := l.Deltas()
	st := d11Stats{total: l.Total(), committed: len(ds)}
	if len(ds) == 0 {
		return st
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	st.mean = sum / time.Duration(len(ds))
	st.p50 = ds[(len(ds)-1)*50/100]
	st.p99 = ds[(len(ds)-1)*99/100]
	return st
}

// straddlers counts the outputs requested before the crash and not yet
// committed at it, how many of those have been released since, and the
// first such release.
func straddlers(l *output.Ledger, crashAt time.Duration) (n, released int, first time.Duration) {
	str := l.Straddling(int64(crashAt))
	for _, rec := range str {
		if !rec.Committed() {
			continue
		}
		released++
		if c := time.Duration(rec.CommittedAt); first == 0 || c < first {
			first = c
		}
	}
	return len(str), released, first
}

func d11StraddleNote(style string, r *Result, crashAt time.Duration) string {
	n, released, first := straddlers(r.C.Outputs(), crashAt)
	return fmt.Sprintf("%s crash: %d outputs straddled it (%d released after); first release t=%s, recovery end t=%s",
		style, n, released, metrics.FmtDuration(first), metrics.FmtDuration(r.recoveryEnd(0)))
}
