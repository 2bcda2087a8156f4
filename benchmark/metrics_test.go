package main

import "encoding/json"

// metricDef declares one metric. Every name, unit and direction below is also
// in BENCHMARK.json; the smoke test fails when the two drift apart
// (`go run -C benchmark . -manifest` prints the file from these tables).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one driver run measures.
const runSeconds = 20

// endToEnd are the metrics a user of the simulator sees, all on the host
// clock, all defined on every workload and never zero. Each is the median
// over the run's timed cells, except setup_s (median over the cells' set-ups
// and the extra set-up-only builds) and peak_rss_mb (the least of the cells'
// peaks; see untraced).
//
// The bounds are what this sandbox's own noise allows, not what the issue
// hoped for (README, "Repeatability"): identical runs minutes apart differ by
// 10–20 % in CPU speed, so every time bound sits at the contract's cap.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"alloc_mb", "MB", lower, 0.12},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// countMetrics are read from every untraced cell through public accessors.
// Those named sim_* are on the simulated clock; they and the plain counts
// repeat exactly for a given seed.
var countMetrics = []metricDef{
	{Name: "cluster.events", Unit: "count", Better: lower},
	{Name: "cluster.delivered", Unit: "count", Better: higher},
	{Name: "cluster.ns_per_event", Unit: "ns", Better: lower},
	{Name: "cluster.allocs_per_event", Unit: "count", Better: lower},
	{Name: "cluster.gc_cycles", Unit: "count", Better: lower},
	{Name: "cluster.cpu_user_s", Unit: "s", Better: lower},
	{Name: "cluster.cpu_sys_s", Unit: "s", Better: lower},
	{Name: "wire.frames_sent", Unit: "count", Better: lower},
	{Name: "wire.bytes_sent", Unit: "B", Better: lower},
	{Name: "wire.app_bytes_share", Unit: "ratio", Better: higher},
	{Name: "fbl.piggyback_dets_per_msg", Unit: "count", Better: lower},
	{Name: "fbl.piggyback_bytes_per_msg", Unit: "B", Better: lower},
	{Name: "fbl.duplicates", Unit: "count", Better: lower},
	{Name: "det.live_entries_max", Unit: "count", Better: lower},
	{Name: "recovery.sim_ms", Unit: "ms", Better: lower},
	{Name: "recovery.ctl_msgs", Unit: "count", Better: lower},
	{Name: "recovery.ctl_bytes", Unit: "B", Better: lower},
	{Name: "recovery.gather_rounds", Unit: "count", Better: lower},
	{Name: "recovery.sim_live_blocked_ms", Unit: "ms", Better: lower},
	{Name: "storage.writes", Unit: "count", Better: lower},
	{Name: "storage.write_mb", Unit: "MB", Better: lower},
	{Name: "output.outputs", Unit: "count", Better: higher},
	{Name: "output.sim_commit_p50_ms", Unit: "ms", Better: lower},
	{Name: "output.sim_commit_p99_ms", Unit: "ms", Better: lower},
	{Name: "traffic.offered", Unit: "count", Better: higher},
	{Name: "traffic.shed", Unit: "count", Better: lower},
	{Name: "traffic.unreleased_at_horizon", Unit: "count", Better: lower},
	{Name: "explore.branches", Unit: "count", Better: higher},
	{Name: "explore.points", Unit: "count", Better: higher},
	{Name: "explore.branches_per_s", Unit: "1/s", Better: higher},
}

// perLayer is every metric a --trace 1 run prints: the counts, the traced
// run's attribution, and the layer drivers.
func perLayer() []metricDef {
	out := append([]metricDef(nil), countMetrics...)
	for _, l := range layers {
		out = append(out, metricDef{Name: l + ".cpu_share", Unit: "ratio", Better: lower})
	}
	out = append(out,
		metricDef{Name: layerGC + "_share", Unit: "ratio", Better: lower},
		metricDef{Name: layerOther + "_share", Unit: "ratio", Better: lower},
	)
	for _, k := range stepKinds {
		out = append(out, metricDef{Name: "sim.step_ns." + k, Unit: "ns", Better: lower})
	}
	for _, k := range stepKinds {
		out = append(out, metricDef{Name: "sim.steps." + k, Unit: "count", Better: lower})
	}
	for _, p := range recoveryPhases {
		out = append(out, metricDef{Name: "recovery.host_ms." + p, Unit: "ms", Better: lower})
	}
	out = append(out,
		metricDef{Name: "trace.probe_overhead_ratio", Unit: "ratio", Better: lower},
		metricDef{Name: "trace.profile_overhead_ratio", Unit: "ratio", Better: lower},
	)
	for _, stem := range driverStems() {
		out = append(out,
			metricDef{Name: stem + "_ns", Unit: "ns", Better: lower},
			metricDef{Name: stem + "_allocs", Unit: "count", Better: lower},
		)
	}
	return out
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(), // no bounds, so the field is left out
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables above hold nothing json cannot encode
	}
	return append(b, '\n')
}
