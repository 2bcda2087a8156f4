// Package bench is the parallel sweep/benchmark harness: it fans the
// deterministic experiments across a bounded worker pool and emits
// versioned BENCH_*.json snapshots of the paper's quantities (recovery
// time, live-process blocked time, recovery control traffic) over a
// parameter grid of seed × cluster size × failure count × hardware
// profile × recovery style.
//
// Each cell of the grid is one single-threaded, deterministic simulation
// (experiments.Run), so cells are embarrassingly parallel: the pool only
// changes wall-clock time, never results. Cells are generated in sorted
// parameter-key order and written back by index, which makes the snapshot
// byte-stable across runs, worker counts, and GOMAXPROCS settings — the
// property the golden tests and the CI regression gate rely on.
//
// The compare half (Compare) diffs two snapshots cell-by-cell and reports
// cost increases beyond a threshold, giving CI a perf gate over the same
// numbers EXPERIMENTS.md discusses. See DESIGN.md §9 for the schema and
// the determinism argument.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/experiments"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// Axes is the sweep grid: the cross product of its fields is the cell set.
// Empty axes are invalid — a sweep must pin every dimension explicitly so
// two snapshots with equal axes are comparable cell-for-cell.
type Axes struct {
	Seeds []int64 `json:"seeds"`
	// MergeSeeds collapses the seed axis: instead of one cell per seed,
	// each (n, failures, profile, style) combination becomes ONE cell whose
	// seeds all run (serially, in one worker) and aggregate — pooled
	// sample distributions, summed totals, and an across-seed min/mean/max
	// spread. The default axes keep it off so CI snapshots stay tiny.
	MergeSeeds bool `json:"merge_seeds,omitempty"`
	// N is the cluster size axis.
	N []int `json:"n"`
	// Failures is the failure-count axis: the number of crashes injected
	// AND the tolerance f the protocol is configured for (f = max(1,
	// failures), so a failure-free cell measures the f=1 logging overhead).
	Failures []int `json:"failures"`
	// Profiles names hardware profiles ("1995", "modern").
	Profiles []string `json:"profiles"`
	// Styles names recovery styles ("nonblocking", "blocking", "manetho").
	Styles []string `json:"styles"`
	// Loads is the offered-load axis in requests per second. 0 (the
	// default when the axis is empty) runs the classic gossip workload;
	// a positive load hosts the open-loop multi-tier traffic workload
	// (DESIGN §12) at that aggregate rate instead, and the cell reports
	// offered/shed arrivals and client-tier commit latency.
	Loads []int `json:"loads,omitempty"`
}

// Params are one cell's coordinates in the grid.
type Params struct {
	Seed int64 `json:"seed"`
	// Seeds is set on merged cells (Axes.MergeSeeds): every seed the cell
	// aggregates, with Seed mirroring Seeds[0]. Nil on plain single-seed
	// cells.
	Seeds    []int64 `json:"seeds,omitempty"`
	N        int     `json:"n"`
	Failures int     `json:"failures"`
	Profile  string  `json:"profile"`
	Style    string  `json:"style"`
	// Load is the offered load in req/s; 0 selects the gossip workload.
	Load int `json:"load,omitempty"`
}

// SeedList returns the seeds the cell covers (at least one).
func (p Params) SeedList() []int64 {
	if len(p.Seeds) > 0 {
		return p.Seeds
	}
	return []int64{p.Seed}
}

// seedLabel renders the seed coordinate: "7" or "1+2+3" for a merged cell.
func (p Params) seedLabel() string {
	parts := make([]string, 0, len(p.Seeds)+1)
	for _, s := range p.SeedList() {
		parts = append(parts, fmt.Sprintf("%d", s))
	}
	return strings.Join(parts, "+")
}

// Key renders the parameter key the cells are sorted by. Load-free cells
// keep the historical five-part key, so snapshots taken before the loads
// axis existed stay comparable cell-for-cell.
func (p Params) Key() string {
	k := fmt.Sprintf("seed=%s/n=%d/f=%d/hw=%s/style=%s",
		p.seedLabel(), p.N, p.Failures, p.Profile, p.Style)
	if p.Load > 0 {
		k += fmt.Sprintf("/load=%d", p.Load)
	}
	return k
}

// normalize sorts and deduplicates one axis in place.
// DefaultAxes is the sweep the bench CLI runs when no axes are given: the
// paper's cluster-size range on both hardware profiles across all three
// recovery styles, with enough injected failures to exercise overlapping
// recoveries. Before the flat-heap scheduler this grid was too expensive
// to be a default; now it is the recommended starting snapshot. The
// Makefile's bench-seed axes stay narrower on purpose — the committed
// BENCH_seed.json is a regression gate, not a survey.
func DefaultAxes() Axes {
	return Axes{
		Seeds:    []int64{1},
		N:        []int{4, 8, 16, 32},
		Failures: []int{1, 2},
		Profiles: []string{"1995", "modern"},
		Styles:   []string{"nonblocking", "blocking", "manetho"},
	}
}

func normalize[T int | int64 | string](xs []T) []T {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Cells validates the axes and expands them into the sorted cell list:
// nested in coordinate order (seed, n, failures, profile, style, load).
// For load-free axes this is exactly ascending Params.Key order; a
// multi-valued loads axis keeps the nesting order even where the key
// strings would sort "load=1000" before "load=200" lexicographically.
func (a Axes) Cells() ([]Params, error) {
	if len(a.Seeds) == 0 || len(a.N) == 0 || len(a.Failures) == 0 ||
		len(a.Profiles) == 0 || len(a.Styles) == 0 {
		return nil, fmt.Errorf("bench: every axis needs at least one value, got %+v", a)
	}
	if len(a.Loads) == 0 {
		a.Loads = []int{0}
	}
	a.Seeds = normalize(a.Seeds)
	a.N = normalize(a.N)
	a.Failures = normalize(a.Failures)
	a.Profiles = normalize(a.Profiles)
	a.Styles = normalize(a.Styles)
	a.Loads = normalize(a.Loads)
	for _, s := range a.Styles {
		if _, err := recovery.ParseStyle(s); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	for _, p := range a.Profiles {
		if _, err := node.ProfileByName(p); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	for _, n := range a.N {
		if err := cluster.ValidateN(n); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	for _, f := range a.Failures {
		if f < 0 {
			return nil, fmt.Errorf("bench: failure count %d < 0", f)
		}
		for _, n := range a.N {
			if f >= n {
				return nil, fmt.Errorf("bench: %d failures need a cluster larger than n=%d", f, n)
			}
		}
	}
	for _, l := range a.Loads {
		if l < 0 {
			return nil, fmt.Errorf("bench: offered load %d < 0", l)
		}
		if l == 0 {
			continue
		}
		for _, n := range a.N {
			if _, err := trafficFor(n, l); err != nil {
				return nil, err
			}
			for _, f := range a.Failures {
				if _, err := trafficVictims(n, f); err != nil {
					return nil, err
				}
			}
		}
	}
	// Merged sweeps fold the whole seed axis into each cell; the nested
	// loop below then runs once with a single sentinel "seed group".
	seedGroups := make([][]int64, 0, len(a.Seeds))
	if a.MergeSeeds {
		seedGroups = append(seedGroups, a.Seeds)
	} else {
		for _, s := range a.Seeds {
			seedGroups = append(seedGroups, []int64{s})
		}
	}
	var cells []Params
	for _, group := range seedGroups {
		for _, n := range a.N {
			for _, f := range a.Failures {
				for _, hw := range a.Profiles {
					for _, style := range a.Styles {
						for _, load := range a.Loads {
							p := Params{Seed: group[0], N: n, Failures: f, Profile: hw, Style: style, Load: load}
							if a.MergeSeeds && len(group) > 1 {
								p.Seeds = group
							}
							cells = append(cells, p)
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// crashSpacing staggers injected crashes so each recovery window is
// disjoint on the 1995 profile (detection ≈3 s + restore ≈1.5 s); the
// first crash lands after the workload has built up log and checkpoint
// state, like the experiments' scenarios.
const (
	firstCrashAt = 10 * time.Second
	crashSpacing = 8 * time.Second
)

// trafficFor derives a cell's traffic topology from its cluster size:
// roughly a quarter of the processes each for clients and frontends, the
// rest backends, fan-out capped at 2 — the same shape D12 uses at n=8.
func trafficFor(n, load int) (workload.Traffic, error) {
	clients := max(1, n/4)
	frontends := max(1, n/4)
	backends := n - clients - frontends
	if backends < 1 {
		return workload.Traffic{}, fmt.Errorf("bench: n=%d too small for a traffic topology (need n >= 3)", n)
	}
	return workload.Traffic{
		Clients:    clients,
		Frontends:  frontends,
		Backends:   backends,
		FanOut:     min(2, backends),
		Load:       load,
		WorkPerHop: int64(500 * time.Microsecond),
		PayloadPad: 256,
	}, nil
}

// trafficVictims picks the crash victims of a traffic cell from the
// backend tail (n-1, n-2, ...): clients must never crash under FBL (see
// fbl.Process.Inject), and the classic victims 1..f would be clients or
// frontends in the traffic topology.
func trafficVictims(n, failures int) ([]ids.ProcID, error) {
	tr, err := trafficFor(n, 1)
	if err != nil {
		return nil, err
	}
	if failures > tr.Backends {
		return nil, fmt.Errorf("bench: %d failures exceed the %d backends of the n=%d traffic topology",
			failures, tr.Backends, n)
	}
	victims := make([]ids.ProcID, failures)
	for i := range victims {
		victims[i] = ids.ProcID(n - 1 - i)
	}
	return victims, nil
}

// SpecFor derives the experiment spec for one cell from the same
// PaperSpec baseline the E/D experiments use. Victims are processes
// 1..Failures, crashed crashSpacing apart starting at firstCrashAt; the
// horizon leaves every recovery room to complete. A loaded cell (Load >
// 0) swaps the gossip workload for the open-loop traffic topology, turns
// output tracking on, and crashes backends from the tail instead.
func SpecFor(p Params) (experiments.Spec, error) {
	style, err := recovery.ParseStyle(p.Style)
	if err != nil {
		return experiments.Spec{}, fmt.Errorf("bench: %w", err)
	}
	hw, err := node.ProfileByName(p.Profile)
	if err != nil {
		return experiments.Spec{}, fmt.Errorf("bench: %w", err)
	}
	if err := cluster.ValidateN(p.N); err != nil {
		return experiments.Spec{}, fmt.Errorf("bench: %w", err)
	}
	if p.Failures < 0 || p.Failures >= p.N {
		return experiments.Spec{}, fmt.Errorf("bench: failure count %d out of range [0,n) for n=%d", p.Failures, p.N)
	}
	spec := experiments.PaperSpec(style, p.Seed)
	spec.N = p.N
	spec.HW = hw
	spec.F = p.Failures
	if spec.F < 1 {
		spec.F = 1
	}
	victims := func(i int) ids.ProcID { return ids.ProcID(1 + i) }
	if p.Load > 0 {
		tr, err := trafficFor(p.N, p.Load)
		if err != nil {
			return experiments.Spec{}, err
		}
		vs, err := trafficVictims(p.N, p.Failures)
		if err != nil {
			return experiments.Spec{}, err
		}
		spec.App = nil
		spec.Traffic = &tr
		spec.TrackOutputs = true
		victims = func(i int) ids.ProcID { return vs[i] }
	}
	var plan failure.Plan
	for i := 0; i < p.Failures; i++ {
		plan = append(plan, failure.Crash{
			At:   firstCrashAt + time.Duration(i)*crashSpacing,
			Proc: victims(i),
		})
	}
	spec.Crashes = plan
	spec.Horizon = 20*time.Second + time.Duration(p.Failures)*10*time.Second
	return spec, nil
}
