package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rollrec/internal/experiments"
	"rollrec/internal/profile"
)

// runSweep runs `experiments sweep`: the grid of deterministic cells,
// written as one BENCH_<label>.json snapshot. The same axes and source tree
// produce the same bytes for any GOMAXPROCS; wall-clock cost goes to
// stderr only, so it never perturbs the snapshot.
func runSweep(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("experiments sweep", flag.ExitOnError)
	label := fs.String("label", "main", "snapshot label; output defaults to BENCH_<label>.json")
	out := fs.String("out", "", "output path (default BENCH_<label>.json)")
	def := experiments.DefaultAxes()
	seeds := fs.String("seeds", joinInt64s(def.Seeds), "comma-separated seed axis")
	ns := fs.String("n", joinInts(def.N), "comma-separated cluster-size axis")
	fails := fs.String("f", joinInts(def.Failures), "comma-separated failure-count axis (crashes injected; tolerance f = max(1, value))")
	profiles := fs.String("profiles", strings.Join(def.Profiles, ","), "comma-separated hardware profiles (1995, modern)")
	styles := fs.String("styles", strings.Join(def.Styles, ","), "comma-separated recovery styles (nonblocking, blocking, manetho)")
	loads := fs.String("loads", "0", "comma-separated offered-load axis in req/s (0 = closed-loop gossip workload)")
	prof := profile.Register(fs)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments sweep: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	axes, err := parseAxes(*seeds, *ns, *fails, *profiles, *styles, *loads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}

	start := time.Now() //rollvet:allow simtime -- wall-clock cost reporting for the operator, kept out of the snapshot
	meta := experiments.Meta{Label: *label, GitRev: gitRev(), GoVersion: runtime.Version()}
	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	snap, err := experiments.RunSweep(ctx, axes, meta)
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	if err := snap.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	var events int64
	for _, c := range snap.Cells {
		events += c.SimEvents
	}
	elapsed := time.Since(start) //rollvet:allow simtime -- wall-clock cost reporting for the operator, kept out of the snapshot
	fmt.Fprintf(os.Stderr, "experiments: wrote %s (%d cells, %d sim events, %v wall)\n",
		path, len(snap.Cells), events, elapsed.Round(time.Millisecond))
	return 0
}

func runTable(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: experiments table SNAPSHOT.json")
		return 2
	}
	snap, err := experiments.ReadSnapshot(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	if err := experiments.Markdown(os.Stdout, snap); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
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

// parseAxes converts the comma-separated flag values into sweep axes.
func parseAxes(seeds, ns, fails, profiles, styles, loads string) (experiments.Axes, error) {
	var a experiments.Axes
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
