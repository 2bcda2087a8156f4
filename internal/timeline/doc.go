// Package timeline is the time-series telemetry subsystem: a deterministic
// sampler that snapshots per-process and cluster-wide gauges at a fixed
// virtual-time interval, so the transient phenomena the paper's argument is
// about — blocked time, orphan rollback, output-commit stalls during a
// failure — become series over time instead of end-of-run aggregates.
//
// The Collector never schedules anything itself. The simulator's sampler
// calls Tick between shard runs at exact virtual-time boundaries without
// enqueueing events ((*sim.Sharded).AddSampler), so enabling sampling
// perturbs neither the event sequence nor the golden trace hash.
//
// Sampled series per tick: event-queue depth and in-flight frames (kernel
// gauges), per-process phase (live/blocked/restoring/recovering/replaying/
// down), determinant-journal size and stability lag (entries below the f+1
// holder watermark), stable-storage bytes, output-commit backlog (requested
// minus released, from the output ledger) with the age of the oldest open
// output (the series that climbs from a crash until recovery releases the
// straddlers), and windowed p50/p99/p99.9 of delivery and output-commit
// latency over tumbling windows (one window per tick, computed as
// histogram deltas — see trace.Histogram.Delta).
//
// Schema v2 adds the multi-tier lanes the open-loop traffic engine needs
// (DESIGN §12): Config.Tiers partitions the process space into contiguous
// tiers (clients, frontends, backends), each tick then carries a per-tier
// in-flight request gauge (summed over the tier's processes, probed from
// any app exposing InflightReqs) and a per-tier tumbling-window
// output-commit distribution, so a backend crash is visible as the client
// tier's release stall while the backend tier's own window runs dry.
// Untiered runs omit the new fields entirely — their JSON and CSV stay
// byte-identical to the v1 form, and Decode still accepts v1 files.
//
// Export is schema-versioned, byte-deterministic JSON/CSV in the same
// discipline as BENCH snapshots; crash and recovery-phase boundaries are
// annotated as markers synthesized from the per-process recovery traces.
package timeline
