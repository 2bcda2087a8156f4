package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// extraSetups is how many set-up-only builds a run adds to the set-ups its
// cells perform anyway, so setup_s is a median over at least eight samples.
const extraSetups = 6

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	reasons []string
}

// TestMain is the benchmark's real entry point. Every host-clock reading of
// the benchmark is in a _test.go file, because rollvet's simtime check (which
// walks every directory of the repository, this one included) rightly bans
// the wall clock from non-test code outside internal/livenet. The launcher
// in main.go builds this package's test binary and runs it with the
// benchmark's flags; without them (under `go test`) the tests run.
func TestMain(m *testing.M) {
	var (
		opts      options
		traceFlag = flag.Int("trace", 0, "0: end-to-end metrics from untraced cells; 1: per-layer metrics from the traced run and the layer drivers")
		scaleFlag = flag.String("scale", string(scaleBench), "cell size: toy, bench, or full (the whole-run cells; reference only)")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		sets      = flag.Int("sets", 0, "repeatability check: run every workload over -seeds seeds, this many times over, and compare the sets")
		seeds     = flag.Int("seeds", 10, "seeds per workload in each set of the repeatability check")
		only      = flag.String("workloads", "", "comma-separated workloads for the repeatability check (default all)")
	)
	flag.StringVar(&opts.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&opts.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&opts.seconds, "seconds", runSeconds, "how long to measure")
	flag.Parse()
	if opts.workload == "" && !*printMan && *sets == 0 {
		os.Exit(m.Run())
	}
	opts.trace = *traceFlag != 0
	opts.scale = scale(*scaleFlag)

	// At most two threads run Go code, whatever the host has, so that
	// numbers from different hosts are comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case *printMan:
		os.Stdout.Write(manifest())
	case *sets > 0:
		if err := checkSets(os.Stdout, *sets, *seeds, *only, opts.seconds); err != nil {
			fmt.Fprintln(os.Stderr, "rollbench:", err)
			os.Exit(1)
		}
	default:
		res, err := run(opts, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rollbench:", err)
			os.Exit(2)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rollbench:", err)
			os.Exit(2)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			for _, r := range res.reasons {
				fmt.Fprintln(os.Stderr, "rollbench: FAILED:", r)
			}
			os.Exit(1)
		}
	}
}

// run measures one workload and returns what to print; progress and the
// human-readable report go to log.
func run(opts options, log io.Writer) (*result, error) {
	w, err := workloadByName(opts.workload)
	if err != nil {
		return nil, err
	}
	switch opts.scale {
	case scaleToy, scaleBench, scaleFull:
	default:
		return nil, fmt.Errorf("unknown scale %q", opts.scale)
	}
	if opts.seconds <= 0 || math.IsNaN(opts.seconds) {
		return nil, errors.New("--seconds must be positive")
	}
	fmt.Fprintf(log, "rollbench workload=%s seed=%d seconds=%g trace=%t scale=%s nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		w.name, opts.seed, opts.seconds, opts.trace, opts.scale,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	r := &runner{w: w, opts: opts, log: log, digests: map[int64]uint64{}}
	var values map[string]float64
	var defs []metricDef
	if opts.trace {
		values, defs = r.traced(), perLayer()
	} else {
		values, defs = r.untraced(), endToEnd
	}

	// One last op: every cell of one sub-seed produced the same sim_digest.
	r.ops++
	if r.digestMismatch != "" {
		r.failed++
		r.reasons = append(r.reasons, r.digestMismatch)
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.ops,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
		reasons:   r.reasons,
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	fmt.Fprintf(log, "ops=%d failed=%d sim_digest=%016x (seed %d)\n", r.ops, r.failed, r.digests[opts.seed], opts.seed)
	return res, nil
}

// runner carries one run's failure account and the digests seen per
// sub-seed.
type runner struct {
	w    workloadDef
	opts options
	log  io.Writer

	ops, failed    int
	reasons        []string
	digests        map[int64]uint64
	digestMismatch string
}

// cell runs one cell and folds it into the run's account.
func (r *runner) cell(seed int64, kind string, h hooks) cell {
	c := runCell(r.w, r.opts.scale, seed, h)
	r.ops += c.ops
	r.failed += c.failed
	for _, why := range c.reasons {
		r.reasons = append(r.reasons, fmt.Sprintf("seed %d: %s", seed, why))
	}
	if prev, seen := r.digests[seed]; !seen {
		r.digests[seed] = c.digest
	} else if prev != c.digest && r.digestMismatch == "" {
		r.digestMismatch = fmt.Sprintf("seed %d: sim_digest %016x of the %s cell differs from %016x before: the simulation is not deterministic, or tracing disturbed it",
			seed, c.digest, kind, prev)
	}
	fmt.Fprintf(r.log, "  cell seed=%d %-9s setup=%.4fs wall=%.4fs cpu=%.3fs alloc=%.1fMB rss=%.1fMB stolen=%.1f%% gcs=%d events=%.0f branches=%.0f digest=%016x\n",
		seed, kind, c.setup.Seconds(), c.wall.Seconds(), (c.user + c.sys).Seconds(), mb(c.alloc), c.rss, 100*c.stolen, c.gcs,
		c.counts["cluster.events"], c.counts["explore.branches"], c.digest)
	return c
}

func (r *runner) subSeed(j int) int64 { return r.opts.seed + int64(j)*subSeedStride }

func (r *runner) budget() time.Duration {
	return time.Duration(r.opts.seconds * float64(time.Second))
}

// untraced measures the end-to-end metrics. One warm-up cell lets the heap
// and the runtime's caches reach their working size; its digest is kept, so
// the first timed cell — same sub-seed — doubles as the determinism check.
// Timed cells then walk distinct sub-seeds until the time is used: a run's
// number is a median over differently-seeded cells, which is what keeps the
// spread between runs of different --seed small.
func (r *runner) untraced() map[string]float64 {
	warm := r.cell(r.opts.seed, "warm-up", hooks{})
	setups := []float64{warm.setup.Seconds()}
	for i := 0; i < extraSetups; i++ {
		setups = append(setups, setupOnly(r.w, r.opts.scale, r.opts.seed).Seconds())
	}

	var cells []cell
	var alloc, rss []float64
	start := time.Now()
	for j := 0; ; j++ {
		c := r.cell(r.subSeed(j), "timed", hooks{})
		cells = append(cells, c)
		setups = append(setups, c.setup.Seconds())
		alloc = append(alloc, mb(c.alloc))
		rss = append(rss, c.rss)
		// Start another cell only if at least half of it fits.
		if time.Since(start)+(c.setup+c.wall)/2 >= r.budget() {
			break
		}
	}
	var wall, cpu []float64
	quiet := quietCells(cells)
	for _, c := range quiet {
		wall = append(wall, c.wall.Seconds())
		cpu = append(cpu, (c.user + c.sys).Seconds())
	}
	fmt.Fprintf(r.log, "%d of %d timed cells ran on a quiet machine (at most %.0f %% of CPU ticks stolen)\n",
		len(quiet), len(cells), 100*quiet[len(quiet)-1].stolen)
	values := map[string]float64{
		"setup_s":  r.report("setup_s", "s", setups),
		"wall_s":   r.report("wall_s", "s", wall),
		"cpu_s":    r.report("cpu_s", "s", cpu),
		"alloc_mb": r.report("alloc_mb", "MB", alloc),
	}
	// The least of the cells' peaks, not their median: what a cell's peak
	// has above the least is the heap overshooting its goal while the
	// background collector waits for a CPU, which on a small heap is most
	// of the number and varies by half between identical runs.
	values["peak_rss_mb"] = slices.Min(rss)
	fmt.Fprintf(r.log, "%-12s least  %12.6g MB  median %9.6g max %12.6g n=%d\n",
		"peak_rss_mb", values["peak_rss_mb"], median(rss), slices.Max(rss), len(rss))
	return values
}

// maxStolen is the share of stolen CPU ticks up to which a cell's times count.
// On the sandbox this was written on, identical cells with at most 2 % stolen
// agree to ±4 %; at 3–6 % they are 10 % slower, and stretches of 20–50 % — a
// cell taking two or three times as long — come and go by the minute and last
// up to half a minute.
const maxStolen = 0.02

// quietCells picks the cells whose times measure the program and not the
// neighbours: those with at most maxStolen of their CPU ticks stolen by the
// hypervisor, or the single least-stolen one if none qualifies (one clean
// cell says more than a median that a stolen one takes part in). They come
// back ordered by stolen share.
func quietCells(cells []cell) []cell {
	s := slices.Clone(cells)
	slices.SortStableFunc(s, func(a, b cell) int { return cmp.Compare(a.stolen, b.stolen) })
	n := 1
	for n < len(s) && s[n].stolen <= maxStolen {
		n++
	}
	return s[:n]
}

// traced measures the per-layer metrics in three parts. Rounds of three
// cells of one sub-seed — untraced, CPU-profiled, probed — use the first
// half of the time; the layer drivers, sized from the untraced cells' counts,
// use the rest. The three cells of a round must agree on the digest: tracing
// only observes.
func (r *runner) traced() map[string]float64 {
	var (
		plain   []cell
		prof    cpuProfile
		steps   stepSpans
		tracer  = newHostTracer()
		probeOv []float64
		profOv  []float64
	)
	probes := r.w.explore == nil // the explorer owns its kernels: nothing to attach to
	start := time.Now()
	for j := 0; ; j++ {
		seed := r.subSeed(j)
		u := r.cell(seed, "untraced", hooks{})
		plain = append(plain, u)
		p := r.cell(seed, "profiled", hooks{timedStart: prof.start, timedEnd: prof.stop})
		profOv = append(profOv, ratio(p.wall.Seconds(), u.wall.Seconds()))
		if probes {
			c := r.cell(seed, "probed", hooks{
				tracer:   tracer,
				step:     steps.probe,
				timedEnd: func() { steps.close(time.Now()) },
			})
			probeOv = append(probeOv, ratio(c.wall.Seconds(), u.wall.Seconds()))
		}
		if time.Since(start) >= r.budget()/2 {
			break
		}
	}
	if prof.err != nil {
		r.failed++
		r.reasons = append(r.reasons, fmt.Sprintf("cpu profile: %v", prof.err))
	}

	values := map[string]float64{}
	// Counts: the median over the untraced cells (they differ by sub-seed).
	for name := range plain[0].counts {
		var v []float64
		for _, c := range plain {
			v = append(v, c.counts[name])
		}
		values[name] = median(v)
	}
	var nsEv, allocsEv, gcs, user, sys, brs []float64
	for _, c := range plain {
		nsEv = append(nsEv, ratio(float64(c.wall), c.counts["cluster.events"]))
		allocsEv = append(allocsEv, ratio(float64(c.objs), c.counts["cluster.events"]))
		gcs = append(gcs, float64(c.gcs))
		user = append(user, c.user.Seconds())
		sys = append(sys, c.sys.Seconds())
		brs = append(brs, ratio(c.counts["explore.branches"], c.wall.Seconds()))
	}
	values["cluster.ns_per_event"] = median(nsEv)
	values["cluster.allocs_per_event"] = median(allocsEv)
	values["cluster.gc_cycles"] = median(gcs)
	values["cluster.cpu_user_s"] = median(user)
	values["cluster.cpu_sys_s"] = median(sys)
	values["explore.branches_per_s"] = median(brs)

	for layer, share := range cpuShares(prof.samples) {
		name := layer + "_share"
		if isLayer[layer] {
			name = layer + ".cpu_share"
		}
		values[name] = share
	}
	for k, name := range stepKinds {
		values["sim.step_ns."+name] = ratio(float64(steps.ns[k]), float64(steps.n[k]))
		values["sim.steps."+name] = float64(steps.n[k]) / float64(len(plain))
	}
	for _, p := range recoveryPhases {
		values["recovery.host_ms."+p] = ms(tracer.total[p]) / float64(len(plain))
	}
	values["trace.probe_overhead_ratio"] = median(probeOv)
	values["trace.profile_overhead_ratio"] = median(profOv)

	sizes := r.driverSizes(values)
	left := r.budget() - time.Since(start)
	// A driver's ramp-up and set-up roughly double what its benchtime asks.
	benchtime := left / time.Duration(len(drivers(sizes))) / 2
	benchtime = max(20*time.Millisecond, min(benchtime, 250*time.Millisecond))
	fmt.Fprintf(r.log, "  drivers: n=%d f=%d piggyback=%d live_dets=%d benchtime=%v\n",
		sizes.n, sizes.f, sizes.piggyback, sizes.liveDets, benchtime)
	for name, v := range runDrivers(sizes, benchtime) {
		values[name] = v
	}

	for _, d := range perLayer() {
		fmt.Fprintf(r.log, "%-36s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	return values
}

// driverSizes takes the drivers' sizes from the workload's own counts. The
// explorer exposes no counts of its clusters, so its drivers run at its
// cluster size with one determinant per message and the 1k log twice.
func (r *runner) driverSizes(counts map[string]float64) driverSizes {
	s := driverSizes{n: 4, f: 1}
	if r.w.spec != nil {
		spec := r.w.spec(r.opts.scale, r.opts.seed)
		s.n, s.f = spec.N, spec.F
	}
	s.piggyback = max(1, int(math.Ceil(counts["fbl.piggyback_dets_per_msg"])))
	s.liveDets = int(counts["det.live_entries_max"])
	if s.liveDets == 0 {
		s.liveDets = 1000
	}
	return s
}

// report prints one metric's median with its range and sample count, and
// returns the median.
func (r *runner) report(name, unit string, samples []float64) float64 {
	m := median(samples)
	fmt.Fprintf(r.log, "%-12s median %12.6g %-3s min %12.6g max %12.6g n=%d\n",
		name, m, unit, slices.Min(samples), slices.Max(samples), len(samples))
	return m
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
