// Package output is the output-commit subsystem: it tracks externally-
// visible output from the moment an application requests its release
// (workload.Ctx.Output) to the moment the hosting protocol's commit rule
// is satisfied and the output may actually leave the system.
//
// The paper's thesis — stable-storage latency, not message counts,
// dominates rollback-recovery cost — is ultimately about this commit
// point: output can only be released once its causal past is guaranteed
// recoverable. Each protocol style has its own rule (DESIGN §10): FBL
// commits when every determinant of an antecedent delivery is replicated
// on f+1 hosts or stable; coordinated checkpointing commits when the
// output is covered by a committed snapshot epoch; optimistic logging
// commits when every causally-preceding state interval is logged stable.
//
// The Ledger is the harness-side half: protocols call Requested at
// Output() time and Committed (or CommitUpTo) when their rule fires; the
// ledger keeps the request→commit virtual-time deltas, feeds them into
// the per-process metrics histogram and the causal trace (one
// EvOutputCommit span per output), and exposes deterministic readouts
// for the experiment tables and bench cells: totals and open counts,
// per-process backlogs and oldest-open ages (the timeline gauges),
// commit-latency deltas, and Straddling — the outputs whose request/commit
// interval spans a given instant, the population D11 and D12 interrogate
// after a crash.
//
// Under the open-loop traffic engine (internal/traffic, DESIGN §12) the
// ledger carries per-tier meaning: a backend record opens when a shard is
// applied, but a client-tier record opens only when the reply reaches the
// head of the client's admission queue and is released to the user. A
// crashed backend therefore shows up in client records as a release
// *stall* — a gap in RequestedAt — rather than as late commits; see
// traffic.StatsPerTier and experiment D12.
//
// A Ledger serves one run. Its state is per process (records and open
// counts; totals are derived), so the simulator's shards, each calling
// for the processes it owns, need no lock.
package output
