package bench

import (
	"context"
	"runtime"
	"sync"
	"time"

	"rollrec/internal/experiments"
	"rollrec/internal/ids"
	"rollrec/internal/workload"
)

// Progress is called (serialized) after each cell completes. done counts
// completed cells; order of completion is nondeterministic, but only the
// stderr progress line sees it — snapshot cells are stored by index.
type Progress func(done, total int, c Cell)

// Options tune a sweep run.
type Options struct {
	// Workers bounds the pool; <=0 means GOMAXPROCS.
	Workers int
	// OnCell, if non-nil, observes completed cells for progress reporting.
	OnCell Progress
	// Meta is copied into the snapshot (Schema is forced).
	Meta Meta
}

// RunSweep expands the axes, runs every cell on a bounded worker pool,
// and returns the snapshot with cells in sorted parameter-key order.
//
// Each cell is one deterministic single-threaded simulation; the pool is
// pure fan-out with results written back by cell index, so the returned
// snapshot is identical for any worker count. On ctx cancellation the
// sweep aborts and returns ctx's error — a partial sweep is never
// reported, because a snapshot missing cells would read as a regression.
func RunSweep(ctx context.Context, axes Axes, opts Options) (*Snapshot, error) {
	cells, err := axes.Cells()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	out := make([]Cell, len(cells))
	errs := make([]error, len(cells))
	idxc := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // serializes OnCell and the done counter
		done     int
		progress = opts.OnCell
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				c, err := runCell(ctx, cells[i])
				out[i], errs[i] = c, err
				if err == nil && progress != nil {
					mu.Lock()
					done++
					progress(done, len(cells), c)
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case idxc <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxc)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	meta := opts.Meta
	meta.Schema = SchemaVersion
	return &Snapshot{Meta: meta, Axes: axes, Cells: out}, nil
}

// seedRun is the raw readout of one seed's simulation within a cell.
type seedRun struct {
	recoveries, blocked, outDeltas []time.Duration
	ctlMsgs, ctlBytes              int64
	delivered, simEvents, outputs  int64
	offered, shed                  int64
	clientDeltas                   []time.Duration
	errors                         int
}

// runCell executes one parameter combination — every seed it covers,
// serially, so the pool's nondeterministic scheduling can never reorder
// the aggregation — and reduces the readouts to a Cell.
func runCell(ctx context.Context, p Params) (Cell, error) {
	seeds := p.SeedList()
	runs := make([]seedRun, 0, len(seeds))
	var horizon time.Duration
	for _, seed := range seeds {
		sp := p
		sp.Seed, sp.Seeds = seed, nil
		spec, err := SpecFor(sp)
		if err != nil {
			return Cell{}, err
		}
		horizon = spec.Horizon
		run, err := runOne(ctx, spec)
		if err != nil {
			return Cell{}, err
		}
		runs = append(runs, run)
	}

	var all seedRun
	for _, run := range runs {
		all.recoveries = append(all.recoveries, run.recoveries...)
		all.blocked = append(all.blocked, run.blocked...)
		all.outDeltas = append(all.outDeltas, run.outDeltas...)
		all.clientDeltas = append(all.clientDeltas, run.clientDeltas...)
		all.ctlMsgs += run.ctlMsgs
		all.ctlBytes += run.ctlBytes
		all.delivered += run.delivered
		all.simEvents += run.simEvents
		all.outputs += run.outputs
		all.offered += run.offered
		all.shed += run.shed
		all.errors += run.errors
	}
	c := Cell{
		Key:          p.Key(),
		Params:       p,
		Recovery:     distOf(all.recoveries),
		Recoveries:   len(all.recoveries),
		Blocked:      distOf(all.blocked),
		CtlMsgs:      all.ctlMsgs,
		CtlBytes:     all.ctlBytes,
		Delivered:    all.delivered,
		SimEvents:    all.simEvents,
		SimMS:        ms(horizon),
		Outputs:      all.outputs,
		OutputCommit: distOf(all.outDeltas),
		Errors:       all.errors,
	}
	if p.Load > 0 {
		c.Offered, c.Shed = all.offered, all.shed
		d := distOf(all.clientDeltas)
		c.ClientCommit = &d
	}
	if len(runs) > 1 {
		per := func(f func(seedRun) float64) MinMeanMax {
			xs := make([]float64, len(runs))
			for i, run := range runs {
				xs[i] = f(run)
			}
			return minMeanMax(xs)
		}
		c.AcrossSeeds = &SeedSpread{
			RecoveryMeanMS: per(func(r seedRun) float64 { return distOf(r.recoveries).MeanMS }),
			BlockedMeanMS:  per(func(r seedRun) float64 { return distOf(r.blocked).MeanMS }),
			CtlMsgs:        per(func(r seedRun) float64 { return float64(r.ctlMsgs) }),
			CtlBytes:       per(func(r seedRun) float64 { return float64(r.ctlBytes) }),
			SimEvents:      per(func(r seedRun) float64 { return float64(r.simEvents) }),
		}
	}
	return c, nil
}

// runOne executes a single-seed spec and collects its readouts.
func runOne(ctx context.Context, spec experiments.Spec) (seedRun, error) {
	r, err := experiments.Run(ctx, spec)
	if err != nil {
		return seedRun{}, err
	}
	crashed := map[ids.ProcID]bool{}
	for _, cr := range spec.Crashes {
		crashed[cr.Proc] = true
	}
	var run seedRun
	for i := 0; i < spec.N; i++ {
		m := r.C.Metrics(ids.ProcID(i))
		run.delivered += m.Delivered
		for _, tr := range m.Recoveries {
			if tr.ReplayedAt != 0 {
				run.recoveries = append(run.recoveries, tr.Total())
			}
		}
		if !crashed[ids.ProcID(i)] {
			run.blocked = append(run.blocked, m.BlockedTotal())
		}
	}
	run.ctlMsgs, run.ctlBytes = r.RecoveryTraffic()
	run.simEvents = r.Events
	run.errors = len(r.Errors)
	// The ledger exists even when output tracking is off (it is then
	// empty).
	run.outputs = int64(r.C.Outputs().Total())
	run.outDeltas = r.C.Outputs().Deltas()
	// Loaded cells: the open-loop arrival counts and the client tier's
	// commit latencies — what a user of the simulated service experiences.
	if spec.Traffic != nil && r.Traffic != nil {
		run.offered = r.Traffic.Offered()
		run.shed = r.Traffic.Shed()
		for _, rec := range r.C.Outputs().Records() {
			if spec.Traffic.TierOf(rec.Proc) == workload.TierClient && rec.Committed() {
				run.clientDeltas = append(run.clientDeltas, rec.Latency())
			}
		}
	}
	return run, nil
}
