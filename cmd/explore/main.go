// Command explore is the failure-schedule explorer's CLI: it enumerates
// crash schedules over the deterministic kernel's decision points for one
// or more protocol families, checks the protocol invariants on every
// branch, and exits non-zero if any schedule violates them. Violations are
// printed as replayable counterexamples and, with -cx-dir, saved as JSON
// files that -replay re-executes byte-identically.
//
// Usage:
//
//	explore [-families all] [-styles all] [-n 3] [-seed 1] [-out report.json]
//	        [-stats] [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	explore -replay cx.json
//
// The report written by -out is byte-deterministic for a given flag set:
// running the same exploration twice, or under a different GOMAXPROCS (the
// number of branches run at once), must produce identical files, which CI
// checks with cmp. A bad spec (-n 1, say) or a counterexample file naming a
// process outside its cluster exits 1 with a message.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"rollrec/internal/explore"
	"rollrec/internal/profile"
	"rollrec/internal/recovery"
)

func main() {
	families := flag.String("families", "all", "comma-separated protocol families to explore: fbl,coordinated,optimistic (or all)")
	styles := flag.String("styles", "all", "comma-separated FBL recovery styles: nonblocking,blocking,manetho (or all; ignored by non-FBL families)")
	n := flag.Int("n", 3, "cluster size")
	f := flag.Int("f", 1, "FBL failure budget (f >= n selects the storage-backed instance)")
	seed := flag.Int64("seed", 1, "scenario seed; every branch replays it exactly")
	horizon := flag.Duration("horizon", 0, "virtual-time budget per branch (0 = family default)")
	points := flag.Int("points", 0, "max decision points per exploration (0 = default)")
	maxCrashes := flag.Int("max-crashes", 1, "max crashes per schedule (each crash past the first is aimed inside a recovery the one before started)")
	deep := flag.Int("deep", 0, "cap on the branches of each level past the first, one per extra crash (0 = default)")
	random := flag.Int("random", 0, "extra seeded-random multi-crash branches on top of the exhaustive pass")
	out := flag.String("out", "", "write the combined report as JSON to this path")
	cxDir := flag.String("cx-dir", "", "save each counterexample as a JSON file in this directory")
	replay := flag.String("replay", "", "re-execute this counterexample file instead of exploring; exits 0 iff it reproduces byte-identically")
	stats := flag.Bool("stats", false, "print per exploration, to stderr: events, heartbeat share of frames, host bytes and allocations per run (probe run and branches)")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	if *replay != "" {
		runReplay(*replay)
		return
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		fatal(err)
	}

	fams := parseFamilies(*families)
	stys, err := parseStyles(*styles)
	if err != nil {
		fatal(err)
	}

	var reports []*explore.Report
	violations := 0
	for _, fam := range fams {
		for _, spec := range specsFor(fam, stys) {
			spec.N = *n
			spec.F = *f
			spec.Seed = *seed
			spec.Horizon = *horizon
			spec.MaxPoints = *points
			spec.MaxCrashes = *maxCrashes
			spec.DeepBranches = *deep
			spec.Random = *random
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := explore.Run(context.Background(), spec)
			if err != nil {
				fatal(err)
			}
			label := string(rep.Spec.Family)
			if rep.Spec.Family == explore.FamilyFBL {
				label += "/" + rep.Spec.Style.String()
			}
			if *stats {
				runtime.ReadMemStats(&after)
				st, runs := rep.Stats, uint64(rep.Stats.Runs)
				fmt.Fprintf(os.Stderr, "stats %-18s branches=%-4d events/run=%-6d windows/run=%-6d events/window=%.1f frames/run=%-6d heartbeat_share=%.3f KB/run=%.1f allocs/run=%d\n",
					label, rep.Branches, st.Events/int64(runs), st.Windows/int64(runs), float64(st.Events)/float64(max(st.Windows, 1)),
					st.Frames/int64(runs), float64(st.Heartbeats)/float64(max(st.Frames, 1)),
					float64((after.TotalAlloc-before.TotalAlloc)/runs)/1024, (after.Mallocs-before.Mallocs)/runs)
			}
			fmt.Printf("%-18s points=%-3d branches=%-4d violations=%-3d baseline_events=%-6d fingerprint=%#016x\n",
				label, rep.Points, rep.Branches, rep.Violations, rep.BaselineEvents, rep.Fingerprint)
			for i, cx := range rep.Counterexamples {
				fmt.Printf("counterexample:\n%s\n", cx)
				if *cxDir != "" {
					path := fmt.Sprintf("%s/cx-%s-%d.json", *cxDir, strings.ReplaceAll(label, "/", "-"), i)
					if err := explore.SaveCounterexample(path, cx); err != nil {
						fatal(err)
					}
					fmt.Printf("saved: %s\n", path)
				}
			}
			violations += rep.Violations
			reports = append(reports, rep)
		}
	}

	if err := stopProfiles(); err != nil {
		fatal(err)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "explore: %d invariant violation(s)\n", violations)
		os.Exit(1)
	}
}

// runReplay re-executes a saved counterexample and reports byte-identity.
func runReplay(path string) {
	cx, err := explore.LoadCounterexample(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying:\n%s\n", cx)
	res, err := explore.Replay(context.Background(), cx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replay: events=%d fingerprint=%#016x match=%v reproduced=%v\n",
		res.Events, res.Fingerprint, res.FingerprintMatch, res.Reproduced)
	for _, v := range res.Violations {
		fmt.Printf("  - %s\n", v)
	}
	if !res.FingerprintMatch || !res.Reproduced {
		fmt.Fprintln(os.Stderr, "explore: counterexample did not reproduce byte-identically")
		os.Exit(1)
	}
}

// parseFamilies splits the -families list; explore.Run refuses an unknown
// family.
func parseFamilies(s string) []explore.Family {
	if s == "all" {
		return explore.Families()
	}
	var out []explore.Family
	for _, part := range strings.Split(s, ",") {
		out = append(out, explore.Family(strings.TrimSpace(part)))
	}
	return out
}

func parseStyles(s string) ([]recovery.Style, error) {
	if s == "all" {
		return []recovery.Style{recovery.NonBlocking, recovery.Blocking, recovery.Manetho}, nil
	}
	var out []recovery.Style
	for _, part := range strings.Split(s, ",") {
		st, err := recovery.ParseStyle(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// specsFor expands a family into the spec skeletons to run: FBL once per
// requested recovery style, the single-algorithm families once.
func specsFor(fam explore.Family, stys []recovery.Style) []explore.Spec {
	if fam != explore.FamilyFBL {
		return []explore.Spec{{Family: fam}}
	}
	specs := make([]explore.Spec, 0, len(stys))
	for _, st := range stys {
		specs = append(specs, explore.Spec{Family: fam, Style: st})
	}
	return specs
}

// fatal prints err once prefixed, whether or not the package already
// prefixed it, and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explore:", strings.TrimPrefix(err.Error(), "explore: "))
	os.Exit(1)
}
