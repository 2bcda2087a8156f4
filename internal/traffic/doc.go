// Package traffic is the open-loop multi-tier traffic engine: it drives
// seeded arrival processes against a serving topology hosted on any of
// the three rollback-recovery styles, so experiments can ask what a user
// actually experiences — request-to-release latency at the client tier —
// while the protocols checkpoint, log, crash, and recover underneath.
//
// Three pieces:
//
//   - arrival.go: deterministic inter-arrival samplers (Poisson via von
//     Neumann's comparison method, bounded Pareto via fixed-point
//     bisection) built from integer arithmetic only, so the arrival
//     schedule is bit-identical on every architecture (DESIGN §12).
//
//   - app.go: a role-switched workload.App implementing the
//     clients → frontends → backends topology of workload.Traffic.
//     Requests enter at a client, fan out to FanOut backend shards, fan
//     back in, and release to the user in admission order; every hop
//     declares an output, so the PR 5 ledger captures per-tier commit
//     latency under each style's output-commit rule.
//
//   - engine.go: the harness-side open-loop source. It schedules
//     arrivals on the simulation clock as harness callbacks and offers
//     each to its client through a per-style injection point
//     (fbl/coord/optimistic Process.Inject); arrivals during downtime
//     are shed, never queued, which is what makes the loop open.
//
// The split matters for recovery semantics: everything the app does is
// checkpointable and replayable, while the engine — the outside world —
// is not rolled back with the cluster. A crash therefore sheds load,
// orphans in-flight requests for the rollback machinery to reconcile,
// and stalls client outputs until the style's commit rule holds again;
// slo.go turns the resulting ledger into per-tier p50/p99/p99.9 tables
// (experiment D12).
package traffic
