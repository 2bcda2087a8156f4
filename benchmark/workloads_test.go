package main

import (
	"fmt"
	"time"

	"rollrec/internal/experiments"
	"rollrec/internal/explore"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// scale selects the size of a workload's cell. The shape (protocol mode,
// scheduler, crash, hardware profile) is the same at every scale.
//
//   - bench is what BENCHMARK.json runs: each cell is sized so that about
//     eight of them fit in one 20 s run, which is what lets a run report a
//     median over cells of different sub-seeds.
//   - full is the whole-run cell the layer profile in ROADMAP.md was taken
//     on (17–35 s each); run it by hand to check the reference counts in
//     the README.
//   - toy is what the smoke test runs.
type scale string

const (
	scaleToy   scale = "toy"
	scaleBench scale = "bench"
	scaleFull  scale = "full"
)

// subSeedStride separates the sub-seeds of one run: cell j of a run with
// --seed s uses s + j*subSeedStride, so runs whose seeds differ by less than
// the stride share no cell.
const subSeedStride = 1000

// workloadDef is one named workload: either a cluster cell (spec) or an
// explorer sweep (explore).
type workloadDef struct {
	name string
	why  string
	// spec builds the cluster cell for one sub-seed; nil for the explorer.
	spec func(sc scale, seed int64) experiments.Spec
	// explore lists the explorations of one cell; nil for cluster cells.
	explore func(sc scale, seed int64) []explore.Spec
}

func workloads() []workloadDef {
	return []workloadDef{
		{
			name: "gossip_n32_bcast",
			why:  "broadcast-mode FBL at n=32: det journal scans on every send dominate, sim is noise; the cell ROADMAP item 2 must move",
			spec: gossipSpec,
		},
		{
			name: "fanout_n256_sharded",
			why:  "fanout mode on the 2-shard scheduler: the live-pending det path, checkpoint copying, GC and the window barrier at scale",
			spec: fanoutSpec,
		},
		{
			name: "traffic_n8_crash",
			why:  "open-loop three-tier traffic with a backend crash: millions of cheap events, so sim, output and traffic show; det via output commit",
			spec: trafficSpec,
		},
		{
			name:    "explore_n4_sweep",
			why:     "failure-schedule explorer over all five families at n=4: many short branches, allocation-bound; the control where det is under 5 %",
			explore: exploreSpecs,
		},
	}
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// crashCell fills the crash plan and horizon. Under the 1995 profile a
// recovery needs 4–7 simulated seconds (watchdog detection alone is 3.5 s),
// which sets the floor of every horizon below.
func crashCell(spec *experiments.Spec, victim int, at, horizon time.Duration) {
	spec.Crashes = failure.Plan{{At: at, Proc: ids.ProcID(victim)}}
	spec.Horizon = horizon
}

func gossipSpec(sc scale, seed int64) experiments.Spec {
	spec := experiments.PaperSpec(recovery.NonBlocking, seed)
	spec.N, spec.F = 32, 1
	switch sc {
	case scaleToy:
		spec.N = 4
		crashCell(&spec, 1, 300*time.Millisecond, 6*time.Second)
	case scaleBench:
		crashCell(&spec, 1, 500*time.Millisecond, 5500*time.Millisecond)
	default:
		crashCell(&spec, 1, 6*time.Second, 16*time.Second)
	}
	return spec
}

func fanoutSpec(sc scale, seed int64) experiments.Spec {
	spec := experiments.PaperSpec(recovery.NonBlocking, seed)
	spec.F = 2
	spec.Shards = 2
	spec.Fanout = 8
	// The D1 scale-cell cadence: 10 ms of work per delivery.
	spec.App = workload.NewRandomPeer(1, 1_000_000, 256, int64(10*time.Millisecond))
	switch sc {
	case scaleToy:
		spec.N, spec.Fanout = 16, 4
		crashCell(&spec, 1, 300*time.Millisecond, 6*time.Second)
	case scaleBench:
		spec.N = 256
		crashCell(&spec, 1, 300*time.Millisecond, 6*time.Second)
	default:
		spec.N = 512
		crashCell(&spec, 1, 10*time.Second, 30*time.Second)
	}
	return spec
}

func trafficSpec(sc scale, seed int64) experiments.Spec {
	// The D12 crash-under-load shape: 250 req/s sits at the two frontends'
	// saturation knee, so queueing and the commit rule compound.
	tr := workload.Traffic{
		Clients: 2, Frontends: 2, Backends: 4, FanOut: 2,
		Load:       250,
		WorkPerHop: int64(500 * time.Microsecond),
		PayloadPad: 256,
	}
	spec := experiments.PaperSpec(recovery.NonBlocking, seed)
	spec.F = 1
	spec.App = nil
	spec.TrackOutputs = true
	at, horizon := time.Second, 6500*time.Millisecond
	switch sc {
	case scaleToy:
		tr.Clients, tr.Frontends, tr.Backends, tr.Load = 1, 1, 2, 100
	case scaleFull:
		at, horizon = 10*time.Second, 30*time.Second
	}
	spec.N = tr.N()
	spec.Traffic = &tr
	// The victim is the last backend; clients cannot crash (FBL replay cannot
	// regenerate injected arrivals).
	crashCell(&spec, spec.N-1, at, horizon)
	return spec
}

// exploreSpecs is one explorer cell: every family at n=4, f=1, single-crash
// schedules. MaxCrashes=2 is deliberately not used: it exceeds f=1 and today
// yields liveness noise and a coord panic.
func exploreSpecs(sc scale, seed int64) []explore.Spec {
	seeds, points := 1, 400
	switch sc {
	case scaleToy:
		points = 4
	case scaleFull:
		seeds = 8
	}
	var out []explore.Spec
	for s := int64(0); s < int64(seeds); s++ {
		for _, fam := range []struct {
			family explore.Family
			style  recovery.Style
		}{
			{explore.FamilyFBL, recovery.NonBlocking},
			{explore.FamilyFBL, recovery.Blocking},
			{explore.FamilyFBL, recovery.Manetho},
			{explore.FamilyCoordinated, recovery.NonBlocking},
			{explore.FamilyOptimistic, recovery.NonBlocking},
		} {
			out = append(out, explore.Spec{
				Family: fam.family, Style: fam.style,
				N: 4, F: 1, Seed: seed + s,
				MaxPoints: points, MaxCrashes: 1,
			})
		}
	}
	return out
}
