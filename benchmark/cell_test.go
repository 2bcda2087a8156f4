package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/experiments"
	"rollrec/internal/explore"
	"rollrec/internal/ids"
	"rollrec/internal/sim"
	"rollrec/internal/trace"
	"rollrec/internal/traffic"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// cell is what one execution of a workload's unit of work produced: host
// costs, the failure account, and the deterministic counts read back through
// the layers' public accessors.
type cell struct {
	setup time.Duration // host: build until the first event can run
	wall  time.Duration // host: run to the horizon plus the end-state check
	user  time.Duration // host: process CPU in user mode over wall
	sys   time.Duration // host: process CPU in kernel mode over wall
	alloc uint64        // bytes: MemStats.TotalAlloc delta over wall
	objs  uint64        // MemStats.Mallocs delta over wall
	gcs   uint32        // MemStats.NumGC delta over wall
	rss   float64       // MB: peak resident set over set-up and wall
	// stolen is the share of the machine's CPU ticks over wall that a
	// hypervisor gave to another guest: how much of this cell's time
	// measures the neighbours and not the program.
	stolen float64

	ops     int
	failed  int
	reasons []string

	// digest folds every simulated readout; two cells of one sub-seed must
	// agree on it whatever the host did.
	digest uint64
	// counts are the deterministic per-layer metrics, by metric name.
	counts map[string]float64
}

// fail counts n failed ops and keeps the first few reasons.
func (c *cell) fail(n int, format string, args ...any) {
	c.failed += n
	if len(c.reasons) < 8 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// hooks are the observation points of a traced cell; the zero value runs
// untraced.
type hooks struct {
	tracer trace.Tracer
	step   sim.StepFunc
	// timed brackets exactly the interval that wall measures.
	timedStart, timedEnd func()
}

// hostUsage snapshots the process's resource usage around a timed interval.
type hostUsage struct {
	mem       runtime.MemStats
	user, sys time.Duration
	// stolen and busy are the machine's CPU ticks so far, all CPUs: ticks a
	// hypervisor gave to someone else while a virtual CPU had work, and
	// ticks spent on work.
	stolen, busy float64
}

func readUsage() hostUsage {
	var u hostUsage
	runtime.ReadMemStats(&u.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.user = time.Duration(ru.Utime.Nano())
		u.sys = time.Duration(ru.Stime.Nano())
	}
	u.stolen, u.busy = cpuTicks()
	return u
}

// cpuTicks reads the machine-wide line of /proc/stat: user nice system idle
// iowait irq softirq steal. Where there is no such file nothing is stolen.
func cpuTicks() (stolen, busy float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [9]float64
	for i := 1; i < len(v); i++ {
		if v[i], err = strconv.ParseFloat(f[i], 64); err != nil {
			return 0, 0
		}
	}
	return v[8], v[1] + v[2] + v[3] + v[6] + v[7]
}

// timed runs fn as the cell's timed interval: everything wall, the CPU and
// allocation counters, the peak resident set and the stolen share cover.
func (c *cell) timed(h hooks, fn func()) {
	before := readUsage()
	if h.timedStart != nil {
		h.timedStart()
	}
	t := time.Now()
	fn()
	c.wall = time.Since(t)
	if h.timedEnd != nil {
		h.timedEnd()
	}
	after := readUsage()
	c.user = after.user - before.user
	c.sys = after.sys - before.sys
	c.alloc = after.mem.TotalAlloc - before.mem.TotalAlloc
	c.objs = after.mem.Mallocs - before.mem.Mallocs
	c.gcs = after.mem.NumGC - before.mem.NumGC
	stolen := after.stolen - before.stolen
	c.stolen = ratio(stolen, stolen+after.busy-before.busy)
	c.rss = peakRSSMB()
}

// peakRSSMB is the process's high-water resident set in MB: VmHWM of
// /proc/self/status, which resetPeakRSS can restart, or failing that the
// whole process's ru_maxrss (both in KiB on Linux).
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(b), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kib, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the kernel's high-water mark at the current resident
// set (Linux: writing 5 to clear_refs), so that peakRSSMB after a cell is
// that cell's own peak. Where the reset is refused the mark keeps the
// process's peak so far, and every cell after the largest reports that.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// freshHeap collects and hands the freed pages back to the system, so that
// what follows starts with the heap a new process would have: the previous
// cell's garbage is not charged to it, and its peak resident set is its own.
func freshHeap() {
	debug.FreeOSMemory()
	resetPeakRSS()
}

// runCell executes one cell of w.
func runCell(w workloadDef, sc scale, seed int64, h hooks) cell {
	freshHeap()
	if w.explore != nil {
		return runExploreCell(w.explore(sc, seed), h)
	}
	return runClusterCell(w.spec(sc, seed), h)
}

// setupOnly performs one set-up of w and reports how long it took.
func setupOnly(w workloadDef, sc scale, seed int64) time.Duration {
	freshHeap()
	t0 := time.Now()
	if w.explore != nil {
		exploreSetup(w.explore(sc, seed))
	} else {
		buildCluster(w.spec(sc, seed), hooks{})
	}
	return time.Since(t0)
}

// buildCluster is the set-up half of experiments.Run: cluster construction,
// the crash plan, and the traffic engine. It is repeated here, on the public
// cluster API, because set-up is timed apart from the run and the traced run
// attaches its step probe in between.
func buildCluster(spec experiments.Spec, h hooks) (*cluster.Cluster, *traffic.Engine) {
	app := spec.App
	if spec.Traffic != nil {
		app = traffic.NewApp(*spec.Traffic)
	}
	c := cluster.New(cluster.Config{
		N:               spec.N,
		F:               spec.F,
		Seed:            spec.Seed,
		HW:              spec.HW,
		Style:           spec.Style,
		App:             app,
		CheckpointEvery: spec.CPEvery,
		StatePad:        spec.Pad,
		Tracer:          h.tracer,
		TrackOutputs:    spec.TrackOutputs,
		Shards:          spec.Shards,
		Fanout:          spec.Fanout,
	})
	c.ApplyPlan(spec.Crashes)
	var eng *traffic.Engine
	if spec.Traffic != nil {
		eng = traffic.NewEngine(*spec.Traffic, spec.Seed)
		eng.Attach(traffic.Host{At: c.K.At, Inject: c.Inject}, spec.Horizon)
	}
	if h.step != nil {
		if k := c.Kernel(); k != nil {
			k.SetStepProbe(h.step)
		}
	}
	return c, eng
}

func runClusterCell(spec experiments.Spec, h hooks) cell {
	var out cell
	t0 := time.Now()
	c, eng := buildCluster(spec, h)
	out.setup = time.Since(t0)

	var (
		events int64
		err    error
		errs   []error
	)
	out.timed(h, func() {
		events, err = c.RunContext(context.Background(), spec.Horizon)
		errs = c.Check()
	})

	// One op for a consistent run.
	out.ops++
	if err != nil {
		out.fail(1, "run: %v", err)
	} else if len(errs) > 0 {
		out.fail(1, "inconsistent run: %d violations, first: %v", len(errs), errs[0])
	}
	res := &experiments.Result{C: c, Spec: spec, Events: events, Traffic: eng}
	out.readCluster(res)
	return out
}

// readCluster fills the failure account, the counts and the digest from a
// finished run.
func (out *cell) readCluster(r *experiments.Result) {
	spec := r.Spec
	dg := newDigest()
	dg.u64(uint64(r.Events))

	var (
		delivered, dups, frames, bytes, appMsgs, appBytes int64
		pbDets, pbBytes, stWrites, stWriteBytes           int64
		liveMax, rounds, recoveries                       int
		recTotal                                          time.Duration
	)
	for i := 0; i < spec.N; i++ {
		p := ids.ProcID(i)
		m := r.C.Metrics(p)
		delivered += m.Delivered
		dups += m.Duplicate
		pbDets += m.PiggybackDets
		pbBytes += m.PiggybackBytes
		stWrites += m.StorageWrites
		stWriteBytes += m.StorageWriteBytes
		for k := 1; k < wire.KindCount; k++ {
			frames += m.MsgsSent[k]
			bytes += m.BytesSent[k]
			dg.u64(uint64(m.MsgsSent[k]))
			dg.u64(uint64(m.BytesSent[k]))
		}
		appMsgs += m.MsgsSent[wire.KindApp]
		appBytes += m.BytesSent[wire.KindApp]
		dg.u64(uint64(m.Delivered))
		for _, rec := range m.Recoveries {
			dg.u64(uint64(rec.Incarnation))
			for _, at := range []int64{rec.CrashedAt, rec.RestartedAt, rec.RestoredAt, rec.GatheredAt, rec.ReplayedAt} {
				dg.u64(uint64(at))
			}
			dg.u64(uint64(rec.Rounds))
			rounds += rec.Rounds
			if rec.Total() > 0 {
				recoveries++
				recTotal += rec.Total()
			}
		}
		if proc := r.C.Proc(p); proc != nil {
			if n := proc.DetLogLen(); n > liveMax {
				liveMax = n
			}
		}
	}
	for _, d := range r.C.Digests() {
		dg.u64(d)
	}

	// One op per injected crash: it must have recovered by the horizon.
	for _, cr := range spec.Crashes {
		out.ops++
		if rec := r.Victim(cr.Proc); rec == nil || rec.Total() <= 0 {
			out.fail(1, "p%d crashed at %v and had not recovered by the horizon", cr.Proc, cr.At)
		}
	}

	ctlMsgs, ctlBytes := r.RecoveryTraffic()
	blockedMean, _ := r.LiveBlocked()
	out.counts = map[string]float64{
		"cluster.events":                float64(r.Events),
		"cluster.delivered":             float64(delivered),
		"wire.frames_sent":              float64(frames),
		"wire.bytes_sent":               float64(bytes),
		"wire.app_bytes_share":          ratio(float64(appBytes), float64(bytes)),
		"fbl.piggyback_dets_per_msg":    ratio(float64(pbDets), float64(appMsgs)),
		"fbl.piggyback_bytes_per_msg":   ratio(float64(pbBytes), float64(appMsgs)),
		"fbl.duplicates":                float64(dups),
		"det.live_entries_max":          float64(liveMax),
		"recovery.sim_ms":               ratio(ms(recTotal), float64(recoveries)),
		"recovery.ctl_msgs":             float64(ctlMsgs),
		"recovery.ctl_bytes":            float64(ctlBytes),
		"recovery.gather_rounds":        float64(rounds),
		"recovery.sim_live_blocked_ms":  ms(blockedMean),
		"storage.writes":                float64(stWrites),
		"storage.write_mb":              float64(stWriteBytes) / 1e6,
		"output.outputs":                0,
		"output.sim_commit_p50_ms":      0,
		"output.sim_commit_p99_ms":      0,
		"traffic.offered":               0,
		"traffic.shed":                  0,
		"traffic.unreleased_at_horizon": 0,
	}

	if spec.TrackOutputs {
		led := r.C.Outputs()
		out.counts["output.outputs"] = float64(led.Total())
		for _, d := range led.Deltas() {
			dg.u64(uint64(d))
		}
	}
	if r.Traffic != nil {
		// One op per offered request: a shed arrival is a refused request.
		// Requests still in the pipeline at the horizon are not failures of
		// the system (the loop is open and the run is cut at a fixed
		// instant); they are reported as their own count.
		offered, shed := r.Traffic.Offered(), r.Traffic.Shed()
		out.ops += int(offered)
		if shed > 0 {
			out.fail(int(shed), "%d of %d arrivals shed", shed, offered)
		}
		client := traffic.StatsPerTier(r.C.Outputs(), *spec.Traffic)[workload.TierClient]
		out.counts["traffic.offered"] = float64(offered)
		out.counts["traffic.shed"] = float64(shed)
		out.counts["traffic.unreleased_at_horizon"] = float64(offered - shed - int64(client.Committed))
		out.counts["output.sim_commit_p50_ms"] = ms(client.P50)
		out.counts["output.sim_commit_p99_ms"] = ms(client.P99)
		dg.u64(uint64(offered))
		dg.u64(uint64(shed))
	}
	out.digest = dg.sum()
}

// exploreSetup is the explorer's set-up: it has no construction step apart
// from the run, so set-up is taken as each spec's crash-free probe run — an
// exploration capped at one decision point.
func exploreSetup(specs []explore.Spec) {
	for _, s := range specs {
		s.MaxPoints = 1
		// The report is discarded: only the time matters, and a failure
		// here fails the timed exploration of the same spec too.
		_, _ = explore.Run(context.Background(), s)
	}
}

func runExploreCell(specs []explore.Spec, h hooks) cell {
	var out cell
	t0 := time.Now()
	exploreSetup(specs)
	out.setup = time.Since(t0)

	reports := make([]*explore.Report, 0, len(specs))
	out.timed(h, func() {
		for _, s := range specs {
			rep, err := explore.Run(context.Background(), s)
			if err != nil {
				out.ops++
				out.fail(1, "explore %s/%v seed %d: %v", s.Family, s.Style, s.Seed, err)
				continue
			}
			reports = append(reports, rep)
		}
	})

	dg := newDigest()
	var branches, points int
	for _, rep := range reports {
		// One op per branch: it fails on an invariant violation.
		out.ops += rep.Branches
		if rep.Violations > 0 {
			out.fail(rep.Violations, "explore %s/%v seed %d: %d violations",
				rep.Spec.Family, rep.Spec.Style, rep.Spec.Seed, rep.Violations)
		}
		branches += rep.Branches
		points += rep.Points
		for _, v := range []uint64{uint64(rep.Points), uint64(rep.Branches), uint64(rep.Violations),
			uint64(rep.BaselineEvents), rep.Fingerprint} {
			dg.u64(v)
		}
	}
	out.counts = map[string]float64{
		"explore.branches": float64(branches),
		"explore.points":   float64(points),
	}
	out.digest = dg.sum()
	return out
}

type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (the metric does not apply to the cell).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
