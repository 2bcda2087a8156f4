package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/pool"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// Axes is the sweep grid: the cross product of its fields is the cell set.
// Empty axes are invalid — a sweep must pin every dimension explicitly so
// two snapshots with equal axes are comparable cell-for-cell.
type Axes struct {
	Seeds []int64 `json:"seeds"`
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
	Seed     int64  `json:"seed"`
	N        int    `json:"n"`
	Failures int    `json:"failures"`
	Profile  string `json:"profile"`
	Style    string `json:"style"`
	// Load is the offered load in req/s; 0 selects the gossip workload.
	Load int `json:"load,omitempty"`
}

// Key renders the parameter key the cells are sorted by. Load-free cells
// keep the historical five-part key, so snapshots taken before the loads
// axis existed stay comparable cell-for-cell.
func (p Params) Key() string {
	k := fmt.Sprintf("seed=%d/n=%d/f=%d/hw=%s/style=%s",
		p.Seed, p.N, p.Failures, p.Profile, p.Style)
	if p.Load > 0 {
		k += fmt.Sprintf("/load=%d", p.Load)
	}
	return k
}

// DefaultAxes is the sweep `experiments sweep` runs when no axes are given:
// the paper's cluster-size range on both hardware profiles across all
// three recovery styles, with enough injected failures to exercise
// overlapping recoveries. The Makefile's bench-seed axes stay narrower on
// purpose — the committed BENCH_seed.json is a regression gate, not a
// survey.
func DefaultAxes() Axes {
	return Axes{
		Seeds:    []int64{1},
		N:        []int{4, 8, 16, 32},
		Failures: []int{1, 2},
		Profiles: []string{"1995", "modern"},
		Styles:   []string{"nonblocking", "blocking", "manetho"},
	}
}

// normalize sorts and deduplicates one axis in place.
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

// Cells expands the axes into the sorted cell list, nested in coordinate
// order (seed, n, failures, profile, style, load), and validates every
// cell with SpecFor. For load-free axes this is exactly ascending
// Params.Key order; a multi-valued loads axis keeps the nesting order even
// where the key strings would sort "load=1000" before "load=200"
// lexicographically.
func (a Axes) Cells() ([]Params, error) {
	if len(a.Seeds) == 0 || len(a.N) == 0 || len(a.Failures) == 0 ||
		len(a.Profiles) == 0 || len(a.Styles) == 0 {
		return nil, fmt.Errorf("experiments: every sweep axis needs at least one value, got %+v", a)
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
	var cells []Params
	for _, seed := range a.Seeds {
		for _, n := range a.N {
			for _, f := range a.Failures {
				for _, hw := range a.Profiles {
					for _, style := range a.Styles {
						for _, load := range a.Loads {
							p := Params{Seed: seed, N: n, Failures: f, Profile: hw, Style: style, Load: load}
							if _, err := SpecFor(p); err != nil {
								return nil, err
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
// rest backends, fan-out capped at 2 — the same shape D12 uses at n=8. Below
// n = 3 there are no backends, which Spec.Validate refuses.
func trafficFor(n, load int) workload.Traffic {
	clients := max(1, n/4)
	frontends := max(1, n/4)
	backends := n - clients - frontends
	return workload.Traffic{
		Clients:    clients,
		Frontends:  frontends,
		Backends:   backends,
		FanOut:     min(2, backends),
		Load:       load,
		WorkPerHop: int64(500 * time.Microsecond),
		PayloadPad: 256,
	}
}

// SpecFor derives one cell's experiment spec from the PaperSpec baseline the
// E/D experiments use, and refuses one Validate refuses (a size out of range,
// a victim outside the cluster). Victims are processes 1..Failures, crashed
// crashSpacing apart from firstCrashAt; the horizon leaves every recovery
// room to complete. A loaded cell (Load > 0) swaps the gossip workload for
// the open-loop traffic topology, turns output tracking on, and crashes
// backends from the tail (n-1, n-2, ...) instead: clients must never crash
// under FBL (see fbl.Process.Inject), and the classic victims 1..f would be
// clients or frontends there.
func SpecFor(p Params) (Spec, error) {
	style, err := recovery.ParseStyle(p.Style)
	if err != nil {
		return Spec{}, fmt.Errorf("experiments: %w", err)
	}
	hw, err := node.ProfileByName(p.Profile)
	if err != nil {
		return Spec{}, fmt.Errorf("experiments: %w", err)
	}
	if p.Failures < 0 {
		return Spec{}, fmt.Errorf("experiments: failure count %d < 0", p.Failures)
	}
	if p.Load < 0 {
		return Spec{}, fmt.Errorf("experiments: offered load %d < 0", p.Load)
	}
	spec := PaperSpec(style, p.Seed)
	spec.N = p.N
	spec.HW = hw
	spec.F = max(1, p.Failures)
	victim := func(i int) ids.ProcID { return ids.ProcID(1 + i) }
	if p.Load > 0 {
		tr := trafficFor(p.N, p.Load)
		if p.Failures > tr.Backends {
			return Spec{}, fmt.Errorf("experiments: %d failures exceed the %d backends of the n=%d traffic topology",
				p.Failures, tr.Backends, p.N)
		}
		spec.App = nil
		spec.Traffic = &tr
		spec.TrackOutputs = true
		victim = func(i int) ids.ProcID { return ids.ProcID(p.N - 1 - i) }
	}
	var plan failure.Plan
	for i := 0; i < p.Failures; i++ {
		plan = append(plan, failure.Crash{
			At:   firstCrashAt + time.Duration(i)*crashSpacing,
			Proc: victim(i),
		})
	}
	spec.Crashes = plan
	spec.Horizon = 20*time.Second + time.Duration(p.Failures)*10*time.Second
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// RunSweep expands the axes, runs every cell on a GOMAXPROCS-sized worker
// pool, and returns the snapshot with cells in sorted parameter-key order.
//
// The pool (internal/pool, shared with the explorer) is pure fan-out with
// results written back by cell index, so the returned snapshot is identical
// for any pool size. On ctx cancellation the sweep aborts and returns ctx's
// error — a partial sweep is never reported, because a snapshot missing
// cells would read as a regression.
func RunSweep(ctx context.Context, axes Axes, meta Meta) (*Snapshot, error) {
	return runSweep(ctx, axes, meta, runtime.GOMAXPROCS(0))
}

func runSweep(ctx context.Context, axes Axes, meta Meta, workers int) (*Snapshot, error) {
	cells, err := axes.Cells()
	if err != nil {
		return nil, err
	}
	out := make([]Cell, len(cells))
	if err := pool.Run(ctx, len(cells), workers, func(i int) (err error) {
		out[i], err = runCell(ctx, cells[i])
		return err
	}); err != nil {
		return nil, err
	}
	meta.Schema = SchemaVersion
	return &Snapshot{Meta: meta, Axes: axes, Cells: out}, nil
}

// runCell runs one parameter combination and reduces its readouts to a
// Cell.
func runCell(ctx context.Context, p Params) (Cell, error) {
	spec, err := SpecFor(p)
	if err != nil {
		return Cell{}, err
	}
	r, err := Run(ctx, spec)
	if err != nil {
		return Cell{}, err
	}
	var recoveries, blocked []time.Duration
	c := Cell{Key: p.Key(), Params: p, SimEvents: r.Events, SimMS: ms(spec.Horizon), Errors: len(r.Errors)}
	for i := 0; i < spec.N; i++ {
		m := r.C.Metrics(ids.ProcID(i))
		c.Delivered += m.Delivered
		for _, tr := range m.Recoveries {
			if tr.ReplayedAt != 0 {
				recoveries = append(recoveries, tr.Total())
			}
		}
	}
	for _, i := range r.liveProcs() {
		blocked = append(blocked, r.C.Metrics(ids.ProcID(i)).BlockedTotal())
	}
	c.Recovery, c.Recoveries = distOf(recoveries), len(recoveries)
	c.Blocked = distOf(blocked)
	c.CtlMsgs, c.CtlBytes = r.RecoveryTraffic()
	// The ledger exists even when output tracking is off (it is then
	// empty).
	ledger := r.C.Outputs()
	c.Outputs = int64(ledger.Total())
	c.OutputCommit = distOf(ledger.Deltas())
	// Loaded cells: the open-loop arrival counts and the client tier's
	// commit latencies — what a user of the simulated service experiences.
	if p.Load > 0 {
		c.Offered, c.Shed = r.Traffic.Offered(), r.Traffic.Shed()
		var client []time.Duration
		for _, rec := range ledger.Records() {
			if spec.Traffic.TierOf(rec.Proc) == workload.TierClient && rec.Committed() {
				client = append(client, rec.Latency())
			}
		}
		d := distOf(client)
		c.ClientCommit = &d
	}
	return c, nil
}
