package experiments

import (
	"context"
	"fmt"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// D1 sweeps the cluster size: the blocking algorithm's intrusion is paid by
// every live process, so its aggregate cost grows with n while the new
// algorithm stays at zero.
func D1(ctx context.Context, seed int64) Table {
	t := Table{
		ID:      "D1",
		Title:   "scale sweep: single failure, f=2, n ∈ {4..64} broadcast, {256,1024} fanout",
		Columns: []string{"n", "algorithm", "recovery", "live blocked (mean)", "blocked×lives (sum)"},
		Notes: []string{
			"n >= 256 runs the fanout protocol mode (degree 8) with a slower gossip cadence",
			"(10 ms/delivery) so the aggregate message rate stays bounded, on 4 scheduler shards;",
			"the shard count changes host time only",
		},
	}
	// n=64 was unaffordable before the flat-heap scheduler; n=1024 was
	// unaffordable before the sharded conservative-window scheduler and the
	// fanout protocol mode (DESIGN §2, §5).
	for _, n := range []int{4, 8, 16, 32, 64, 256, 1024} {
		for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking} {
			spec := PaperSpec(style, seed)
			spec.N = n
			spec.Crashes = failure.Plan{{At: 10 * time.Second, Proc: 1}}
			spec.Horizon = 20 * time.Second
			if n >= 256 {
				spec.Shards = 4
				spec.Fanout = 8
				// O(n) concurrent chains: stretch the per-delivery work so
				// the cluster-wide rate, and with it the simulation cost,
				// stays in the same regime as the small cells. The victim's
				// replay runs at the same 10 ms cadence, so give the
				// recovery room to finish before the horizon.
				spec.App = workload.NewRandomPeer(1, 1_000_000, 256, int64(10*time.Millisecond))
				spec.Horizon = 30 * time.Second
			}
			r := MustRun(ctx, spec)
			if ctx.Err() != nil {
				return t
			}
			mean, _ := r.LiveBlocked()
			t.AddRow(n, style.String(), r.Victim(1).Total(), mean,
				time.Duration(int64(mean)*int64(n-1)))
		}
	}
	return t
}

// D2 is the paper's central argument made quantitative: as the stable-
// storage penalty grows relative to communication, the blocking styles'
// intrusion grows with it while the new algorithm stays flat.
func D2(ctx context.Context, seed int64) Table {
	t := Table{
		ID:      "D2",
		Title:   "stable-storage latency sweep (×1..×16 of the 1995 disk), n=8, f=2",
		Columns: []string{"disk scale", "style", "recovery", "live blocked (mean)"},
		Notes: []string{
			"slower storage stretches the second victim's restore; the blocking styles make every live",
			"process wait it out (the 'tens of seconds or even minutes' of paper §2.2)",
			"at x16 a 1MB checkpoint write (~12s) no longer completes within the 4s interval, so victims",
			"lose their checkpoints and recover by whole-history replay — checkpointing that cannot keep",
			"up with its disk is itself a storage-latency casualty",
		},
	}
	for _, scale := range []float64{1, 4, 16} {
		for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking, recovery.Manetho} {
			spec := PaperSpec(style, seed)
			spec.HW.Disk = spec.HW.Disk.Scale(scale)
			// The overlapping-failure scenario: the gather stalls on the
			// second victim's detection+restore, which scales with the disk.
			spec.Crashes = failure.Plan{
				{At: 10 * time.Second, Proc: 3},
				{At: 14100*time.Millisecond + time.Duration(scale*float64(400*time.Millisecond)), Proc: 5},
			}
			// The x16 disk stretches restores to ~9 s each; leave room for
			// both recoveries to complete.
			spec.Horizon = 90 * time.Second
			r := MustRun(ctx, spec)
			if ctx.Err() != nil {
				return t
			}
			mean, _ := r.LiveBlocked()
			t.AddRow(fmt.Sprintf("x%.0f", scale), style.String(), r.Victim(3).Total(), mean)
		}
	}
	return t
}

// D3 counts the communication the paper argues is now cheap: recovery
// control messages by kind and size, per algorithm and cluster size. The
// new algorithm pays more messages — that is its stated price (§3.1).
func D3(ctx context.Context, seed int64) Table {
	t := Table{
		ID:      "D3",
		Title:   "recovery communication: control messages per recovery",
		Columns: []string{"n", "algorithm", "ctl msgs", "ctl bytes", "msgs/process"},
	}
	for _, n := range []int{4, 8, 16} {
		for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking} {
			spec := PaperSpec(style, seed)
			spec.N = n
			spec.Crashes = failure.Plan{{At: 10 * time.Second, Proc: 1}}
			spec.Horizon = 20 * time.Second
			r := MustRun(ctx, spec)
			if ctx.Err() != nil {
				return t
			}
			msgs, bytes := r.RecoveryTraffic()
			t.AddRow(n, style.String(), msgs, bytes, float64(msgs)/float64(n))
		}
	}
	return t
}

// D4 measures the failure-free cost of the protocol family as f varies:
// "applications pay only the overhead that corresponds to the number of
// failures they are willing to tolerate" (paper §2).
func D4(ctx context.Context, seed int64) Table {
	t := Table{
		ID:      "D4",
		Title:   "failure-free overhead vs f (n=8, no crashes, 20s of gossip)",
		Columns: []string{"f", "piggyback dets/app msg", "piggyback bytes/app msg", "storage msgs", "delivered"},
		Notes: []string{
			"f = n streams determinants to the stable-storage pseudo-process (Manetho instance, §3.3)",
		},
	}
	for _, f := range []int{1, 2, 4, 8} {
		spec := PaperSpec(recovery.NonBlocking, seed)
		spec.F = f
		spec.Horizon = 20 * time.Second
		r := MustRun(ctx, spec)
		if ctx.Err() != nil {
			return t
		}
		var appMsgs, dets, bytes, toStorage, delivered int64
		for i := 0; i < spec.N; i++ {
			m := r.C.Metrics(ids.ProcID(i))
			appMsgs += m.MsgsSent[uint8(wire.KindApp)]
			dets += m.PiggybackDets
			bytes += m.PiggybackBytes
			toStorage += m.MsgsSent[uint8(wire.KindDetsToStorage)]
			delivered += m.Delivered
		}
		if appMsgs == 0 {
			appMsgs = 1
		}
		t.AddRow(f, float64(dets)/float64(appMsgs), float64(bytes)/float64(appMsgs), toStorage, delivered)
	}
	return t
}

// D7 sweeps link latency from LAN to WAN: with expensive communication the
// new algorithm's extra round trips start to show — the regime the old
// message-complexity yardstick was built for (§1).
func D7(ctx context.Context, seed int64) Table {
	t := Table{
		ID:      "D7",
		Title:   "network latency sweep (single failure, n=8, f=2)",
		Columns: []string{"one-way latency", "algorithm", "recovery", "gather", "live blocked (mean)"},
		Notes: []string{
			"on a WAN the gather grows with round trips for both styles, but only the blocking style",
			"converts it into live-process stall; total recovery SHRINKS with latency only because the",
			"gossip itself slows down, leaving less to replay — compare the gather column",
		},
	}
	for _, lat := range []time.Duration{400 * time.Microsecond, 5 * time.Millisecond, 50 * time.Millisecond} {
		for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking} {
			spec := PaperSpec(style, seed)
			spec.HW.Net.Latency = lat
			spec.Crashes = failure.Plan{{At: 10 * time.Second, Proc: 3}}
			spec.Horizon = 30 * time.Second
			r := MustRun(ctx, spec)
			if ctx.Err() != nil {
				return t
			}
			b := BreakdownOf(r.Victim(3))
			mean, _ := r.LiveBlocked()
			t.AddRow(lat.String(), style.String(), b.Total, b.Gather, mean)
		}
	}
	return t
}

// All runs every experiment in index order, stopping early (with the
// tables produced so far) when ctx is done.
func All(ctx context.Context, seed int64) []Table {
	var out []Table
	for _, run := range []func(context.Context, int64) Table{
		E1, E2, D1, D2, D3, D4, D5, D6, D7, D8, D9, D10, D11,
	} {
		if ctx.Err() != nil {
			break
		}
		out = append(out, run(ctx, seed))
	}
	return out
}
