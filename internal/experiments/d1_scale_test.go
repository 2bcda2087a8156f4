package experiments

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/storage"
	"rollrec/internal/workload"
)

// d1ScaleSpec is the D1 n=1024 cell with a shortened horizon: same
// scheduler (4 shards), same fanout, same slowed gossip cadence — the CI
// smoke shape for the scale sweep. The crash lands before the first
// checkpoint completes, so the victim recovers by whole-history replay;
// 18 s leaves it room to finish (detect ~7 s, restart, gather, ~4 s of
// replayed work).
func d1ScaleSpec(shards int) Spec {
	spec := PaperSpec(recovery.NonBlocking, 1)
	spec.N = 1024
	spec.Shards = shards
	spec.Fanout = 8
	spec.App = workload.NewRandomPeer(1, 1_000_000, 256, int64(10*time.Millisecond))
	spec.Crashes = failure.Plan{{At: 4 * time.Second, Proc: 1}}
	spec.Horizon = 18 * time.Second
	return spec
}

// logFootprint reports (-v) what the finished run's modelled logging state
// costs, from the processes' own counters (det.Stats, fbl.DetStats), their
// stable stores (resident: the bytes held; logical: with the padding) and the
// heap that is live with the cluster still reachable: per-process mean and
// max, so the next footprint decision is read here, not profiled. The
// harness's checker (cluster.CheckerStats) is no process's: its row is the
// cluster's total over n.
func logFootprint(t *testing.T, shards int, r *Result, allocatedBefore uint64) {
	t.Helper()
	fields := []struct {
		name string
		of   func(fbl.DetStats, *storage.Store) int
	}{
		{"det entries", func(s fbl.DetStats, _ *storage.Store) int { return s.Entries }},
		{"det slab B", func(s fbl.DetStats, _ *storage.Store) int { return s.SlabBytes }},
		{"det table B", func(s fbl.DetStats, _ *storage.Store) int { return s.TableBytes }},
		{"det holder B", func(s fbl.DetStats, _ *storage.Store) int { return s.HolderBytes }},
		{"det inline", func(s fbl.DetStats, _ *storage.Store) int { return s.Inline }},
		{"det overflowed", func(s fbl.DetStats, _ *storage.Store) int { return s.Overflowed }},
		{"send-log records", func(s fbl.DetStats, _ *storage.Store) int { return s.SendLogRecords }},
		{"send-log B", func(s fbl.DetStats, _ *storage.Store) int { return s.SendLogBytes }},
		{"store resident B", func(_ fbl.DetStats, st *storage.Store) int { return int(st.Resident()) }},
		{"store logical B", func(_ fbl.DetStats, st *storage.Store) int { return int(st.Bytes()) }},
	}
	sum, most := make([]int, len(fields)), make([]int, len(fields))
	n := 0
	for i := 0; i < r.Spec.N; i++ {
		p := r.C.Proc(ids.ProcID(i))
		if p == nil {
			continue
		}
		n++
		st, store := p.DetStats(), r.C.K.Store(ids.ProcID(i))
		for k, f := range fields {
			v := f.of(st, store)
			sum[k] += v
			most[k] = max(most[k], v)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("shards=%d: live heap after GC %.0f MB, allocated by the run %.0f MB; per process (%d), mean / max:",
		shards, float64(ms.HeapAlloc)/(1<<20), float64(ms.TotalAlloc-allocatedBefore)/(1<<20), n)
	for k, f := range fields {
		t.Logf("  %-17s %10.0f / %d", f.name, float64(sum[k])/float64(n), most[k])
	}
	ck := r.C.CheckerStats()
	t.Logf("  %-17s %10.0f   (cluster: %d timeline + %d index B, %d sends and %d deliveries recorded)", "checker B",
		float64(ck.TimelineBytes+ck.IndexBytes)/float64(r.Spec.N), ck.TimelineBytes, ck.IndexBytes, ck.Sends, ck.Deliveries)
	runtime.KeepAlive(r)
}

// TestD1Scale1024 smoke-runs the sweep's largest cell at 1 and 4 shards:
// both runs must be consistent, complete the victim's recovery, block no
// live process, and agree exactly on every readout — the n=1024 analogue
// of the sharded golden-trace gate, at the cost of two runs instead of
// three.
func TestD1Scale1024(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1024 cell is a long test")
	}
	// A run hands back its readouts, not its cluster: the first one's
	// gigabyte of modelled state is garbage by the time the second is built.
	type readout struct {
		recovery time.Duration
		events   int64
		digests  []uint64
	}
	run := func(shards int) readout {
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		r := MustRun(context.Background(), d1ScaleSpec(shards))
		if r.Victim(1).Total() <= 0 {
			t.Fatalf("shards=%d: victim recorded no recovery", shards)
		}
		if mean, _ := r.LiveBlocked(); mean != 0 {
			t.Fatalf("shards=%d: nonblocking style blocked live processes for %v (mean)", shards, mean)
		}
		logFootprint(t, shards, r, before.TotalAlloc)
		return readout{r.Victim(1).Total(), r.Events, r.C.Digests()}
	}
	r1, r4 := run(1), run(4)
	for i := range r1.digests {
		if r1.digests[i] != r4.digests[i] {
			t.Fatalf("digest of proc %d differs across shard counts: %#x vs %#x", i, r1.digests[i], r4.digests[i])
		}
	}
	if r1.recovery != r4.recovery {
		t.Fatalf("victim recovery differs across shard counts: %v vs %v", r1.recovery, r4.recovery)
	}
	if r1.events != r4.events {
		t.Fatalf("event counts differ across shard counts: %d vs %d", r1.events, r4.events)
	}
}
