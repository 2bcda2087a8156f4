package traffic

import (
	"time"

	"rollrec/internal/metrics"
	"rollrec/internal/output"
	"rollrec/internal/workload"
)

// TierStats is the SLO readout for one tier: how many outputs its
// processes requested, how many committed within the run, and exact
// quantiles of the request→commit latency (the per-hop "request to
// release" time the output ledger measures). The client tier's numbers
// are the user-visible ones — a client output commits only when the
// response may actually leave the system under the hosting style's rule.
type TierStats struct {
	Tier      workload.Tier
	Requested int
	Committed int
	P50       time.Duration
	P99       time.Duration
	P999      time.Duration
}

// StatsPerTier groups the ledger's committed outputs by tier and returns
// one TierStats per tier in tier order. Quantiles are exact
// (metrics.ExactQuantiles, as in the experiment tables), not estimates.
func StatsPerTier(led *output.Ledger, spec workload.Traffic) []TierStats {
	lats := make([][]time.Duration, 3)
	stats := make([]TierStats, 3)
	for i := range stats {
		stats[i].Tier = workload.Tier(i)
	}
	for _, rec := range led.Records() {
		t := spec.TierOf(rec.Proc)
		stats[t].Requested++
		if rec.Committed() {
			stats[t].Committed++
			lats[t] = append(lats[t], rec.Latency())
		}
	}
	for i, ds := range lats {
		q := metrics.ExactQuantiles(ds, 500, 990, 999)
		stats[i].P50, stats[i].P99, stats[i].P999 = q[0], q[1], q[2]
	}
	return stats
}
