// Command bench is the parallel sweep/benchmark harness CLI: it fans the
// deterministic experiments across a worker pool and emits versioned
// BENCH_<label>.json snapshots, diffs two snapshots as a CI regression
// gate, and renders a snapshot as the markdown tables EXPERIMENTS.md
// embeds.
//
// Usage:
//
//	bench [-label L] [-out FILE] [-seeds 1,2] [-n 4,8] [-f 0,1,2]
//	      [-profiles 1995,modern] [-styles nonblocking,blocking,manetho]
//	      [-loads 0,1000] [-workers N] [-merge-seeds] [-quiet]
//	      [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	bench compare OLD.json NEW.json [-threshold 0.05]
//	bench table SNAPSHOT.json
//
// The sweep is deterministic: the same axes and source tree produce a
// byte-identical snapshot for any -workers value and GOMAXPROCS setting.
// Wall-clock cost is reported on stderr only, so it never perturbs the
// snapshot bytes. See DESIGN.md §9 for the schema and gate semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rollrec/internal/bench"
	"rollrec/internal/profile"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		case "table":
			os.Exit(runTable(os.Args[2:]))
		}
	}
	os.Exit(runSweep(os.Args[1:]))
}

func runSweep(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	label := fs.String("label", "main", "snapshot label; output defaults to BENCH_<label>.json")
	out := fs.String("out", "", "output path (default BENCH_<label>.json)")
	def := bench.DefaultAxes()
	seeds := fs.String("seeds", joinInt64s(def.Seeds), "comma-separated seed axis")
	ns := fs.String("n", joinInts(def.N), "comma-separated cluster-size axis")
	fails := fs.String("f", joinInts(def.Failures), "comma-separated failure-count axis (crashes injected; tolerance f = max(1, value))")
	profiles := fs.String("profiles", strings.Join(def.Profiles, ","), "comma-separated hardware profiles (1995, modern)")
	styles := fs.String("styles", strings.Join(def.Styles, ","), "comma-separated recovery styles (nonblocking, blocking, manetho)")
	loads := fs.String("loads", "0", "comma-separated offered-load axis in req/s (0 = closed-loop gossip workload)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	mergeSeeds := fs.Bool("merge-seeds", false, "aggregate all seeds into one cell per configuration (mean plus min/max spread)")
	quiet := fs.Bool("quiet", false, "suppress per-cell progress on stderr")
	prof := profile.Register(fs)
	fs.Parse(args)

	axes, err := parseAxes(*seeds, *ns, *fails, *profiles, *styles, *loads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	axes.MergeSeeds = *mergeSeeds
	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now() //rollvet:allow simtime -- wall-clock cost reporting for the operator, kept out of the snapshot
	opts := bench.Options{
		Workers: *workers,
		Meta: bench.Meta{
			Label:     *label,
			GitRev:    gitRev(),
			GoVersion: runtime.Version(),
		},
	}
	if !*quiet {
		opts.OnCell = func(done, total int, c bench.Cell) {
			fmt.Fprintf(os.Stderr, "bench: %3d/%d %s (%d sim events)\n", done, total, c.Key, c.SimEvents)
		}
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	snap, err := bench.RunSweep(ctx, axes, opts)
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "bench:", perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	if err := snap.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var events int64
	for _, c := range snap.Cells {
		events += c.SimEvents
	}
	elapsed := time.Since(start) //rollvet:allow simtime -- wall-clock cost reporting for the operator, kept out of the snapshot
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d cells, %d sim events, %v wall on %d workers)\n",
		path, len(snap.Cells), events, elapsed.Round(time.Millisecond), effectiveWorkers(*workers, len(snap.Cells)))
	return 0
}

func effectiveWorkers(requested, cells int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > cells {
		return cells
	}
	return requested
}

func runCompare(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.05, "relative cost increase tolerated before failing (0 = exact)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bench compare OLD.json NEW.json [-threshold 0.05]")
		fs.PrintDefaults()
	}
	// Accept both `compare OLD NEW -threshold X` and `compare -threshold X OLD NEW`.
	var paths []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		paths = append(paths, args[0])
		args = args[1:]
	}
	fs.Parse(args)
	paths = append(paths, fs.Args()...)
	if len(paths) != 2 {
		fs.Usage()
		return 2
	}
	oldSnap, err := bench.ReadFile(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	newSnap, err := bench.ReadFile(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	regs, notes := bench.Compare(oldSnap, newSnap, *threshold)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	for _, r := range regs {
		fmt.Println("REGRESSION:", r)
	}
	if len(regs) > 0 {
		fmt.Printf("bench compare: %d regression(s) beyond threshold %.2f (%s -> %s)\n",
			len(regs), *threshold, paths[0], paths[1])
		return 1
	}
	fmt.Printf("bench compare: ok, %d cells within threshold %.2f (%s -> %s)\n",
		len(oldSnap.Cells), *threshold, paths[0], paths[1])
	return 0
}

func runTable(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: bench table SNAPSHOT.json")
		return 2
	}
	snap, err := bench.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := bench.Markdown(os.Stdout, snap); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// gitRev asks git for the current short revision (plus -dirty when the
// tree is modified); "unknown" outside a checkout.
func gitRev() string {
	rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	out := strings.TrimSpace(string(rev))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		out += "-dirty"
	}
	return out
}

// parseAxes converts the comma-separated flag values into a bench.Axes.
func parseAxes(seeds, ns, fails, profiles, styles, loads string) (bench.Axes, error) {
	var a bench.Axes
	for _, s := range splitList(seeds) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return a, fmt.Errorf("bad seed %q: %v", s, err)
		}
		a.Seeds = append(a.Seeds, v)
	}
	var err error
	if a.N, err = parseInts(ns, "n"); err != nil {
		return a, err
	}
	if a.Failures, err = parseInts(fails, "f"); err != nil {
		return a, err
	}
	a.Profiles = splitList(profiles)
	a.Styles = splitList(styles)
	if a.Loads, err = parseInts(loads, "load"); err != nil {
		return a, err
	}
	return a, nil
}

func parseInts(list, name string) ([]int, error) {
	var out []int
	for _, s := range splitList(list) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %v", name, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func joinInt64s(xs []int64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatInt(x, 10)
	}
	return strings.Join(parts, ",")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
