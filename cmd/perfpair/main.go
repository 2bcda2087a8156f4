// Command perfpair is the measuring half of scripts/perf_pair.sh: it runs the
// host-time benchmark BENCHMARK.json declares on two checkouts of this
// repository — the parent commit and the change — in alternating pairs, and
// writes what it saw to PERF_<label>.json: every run, each side's median and
// quartiles, the pair-wise win count, whether the simulated digests agree,
// and where it was measured. It exits non-zero when a median is outside its
// declared bound, a digest differs, or a larger share of operations failed.
// A change that moves simulated behaviour on purpose names the workloads it
// moves (-behaviour-change a,b): for those a digest that does NOT differ is
// the problem, for every other workload one that does. A change that claims a
// gain names the cell (-claim workload/metric): the claim is met only by the
// verdict "improved" — at least ten pairs, nine tenths of them won, medians
// apart by more than the parent's own interquartile range — and an unmet
// claim exits 1 even in warn mode.
//
// It reads the benchmark's output and nothing of its source: benchmark/ and
// BENCHMARK.json stay frozen.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json this tool needs.
type manifest struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

// checkDeclared refuses a -behaviour-change list naming a workload the
// manifest does not have, before forty minutes of runs: a misspelt name
// declares nothing, and the workload it meant then fails as undeclared.
func (mf manifest) checkDeclared(declared []string) error {
	for _, d := range declared {
		known := false
		for _, w := range mf.Workloads {
			known = known || w.Name == d
		}
		if !known {
			return fmt.Errorf("-behaviour-change: BENCHMARK.json has no workload %q", d)
		}
	}
	return nil
}

// checkClaim refuses a -claim that does not name a workload and an
// end-to-end metric of the manifest, before the runs.
func (mf manifest) checkClaim(claim string) error {
	if claim == "" {
		return nil
	}
	workload, metric, ok := strings.Cut(claim, "/")
	if !ok || mf.checkDeclared([]string{workload}) != nil ||
		!slices.ContainsFunc(mf.EndToEnd, func(d metricDef) bool { return d.Name == metric }) {
		return fmt.Errorf("-claim %q: want workload/metric, both from BENCHMARK.json", claim)
	}
	return nil
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the parent's median it may worsen by
}

// run is what one benchmark process reported.
type run struct {
	Digest    string
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

// Report is the PERF_<label>.json document.
type Report struct {
	Label     string           `json:"label"`
	Env       map[string]any   `json:"env"`
	Pairs     int              `json:"pairs"`
	Seconds   int              `json:"seconds_per_run"`
	Workloads []WorkloadReport `json:"workloads"`
	OK        bool             `json:"ok"`
	Problems  []string         `json:"problems"`
}

type WorkloadReport struct {
	Name string `json:"name"`
	// BehaviourChange is true for a workload the change declared it moves:
	// its digests are expected to differ from the parent's.
	BehaviourChange bool           `json:"behaviour_change_declared,omitempty"`
	DigestEqual     bool           `json:"sim_digest_equal"`
	Digests         []DigestPair   `json:"sim_digests"`
	Ops             map[string]Ops `json:"ops"` // by side
	Metrics         []MetricReport `json:"metrics"`
}

type DigestPair struct {
	Seed   int    `json:"seed"`
	First  string `json:"ran_first"`
	Parent string `json:"parent"`
	Change string `json:"change"`
}

type Ops struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

type Side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"` // in pair order
}

type MetricReport struct {
	metricDef
	Parent Side `json:"parent"`
	Change Side `json:"change"`
	// Worse is the change's median relative to the parent's, signed so that
	// positive is worse whatever the metric's direction.
	Worse  float64 `json:"median_worse_by"`
	Wins   int     `json:"wins"` // pairs the change read better in
	Losses int     `json:"losses"`
	Ties   int     `json:"ties"`
	// PairsOutsideBound lists the pairs (1-based) in which the change read
	// worse than the parent by more than the bound, whatever the medians say.
	PairsOutsideBound []int  `json:"pairs_outside_bound"`
	Verdict           string `json:"verdict"`
}

// minPairs is the fewest pairs a gain may be claimed from.
const minPairs = 10

// Verdicts, in the vocabulary of the choosing-metrics guide.
const (
	improved    = "improved"     // ≥ minPairs pairs, ≥ 9/10 of them won, medians apart by more than the parent's IQR
	withinBound = "within_bound" // median no worse than the bound allows
	unresolved  = "unresolved"   // within bound, but the parent's own spread is wider than the bound
	regressed   = "regressed"    // median worse than the bound allows
)

func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func side(runs []float64) Side {
	q1, med, q3 := quartiles(runs)
	return Side{Median: med, Q1: q1, Q3: q3, Runs: runs}
}

// compare judges one metric on one workload from its paired runs.
func compare(def metricDef, parent, change []float64) MetricReport {
	m := MetricReport{metricDef: def, Parent: side(parent), Change: side(change), PairsOutsideBound: []int{}}
	sign := 1.0 // positive difference = worse
	if def.Better == "higher" {
		sign = -1
	}
	worse := func(p, c float64) float64 { return sign * (c - p) / p }
	for i := range parent {
		d := worse(parent[i], change[i])
		switch {
		case d < 0:
			m.Wins++
		case d > 0:
			m.Losses++
		default:
			m.Ties++
		}
		if d > def.Bound {
			m.PairsOutsideBound = append(m.PairsOutsideBound, i+1)
		}
	}
	// Every run of the change better than every run of the parent.
	allBetter := slices.Max(change) < slices.Min(parent)
	if sign < 0 {
		allBetter = slices.Min(change) > slices.Max(parent)
	}
	m.Worse = worse(m.Parent.Median, m.Change.Median)
	iqr := m.Parent.Q3 - m.Parent.Q1
	switch {
	case m.Worse > def.Bound:
		m.Verdict = regressed
	case len(parent) >= minPairs && 10*m.Wins >= 9*len(parent) && sign*(m.Parent.Median-m.Change.Median) > iqr:
		m.Verdict = improved
	case iqr/m.Parent.Median > def.Bound && !allBetter:
		m.Verdict = unresolved
	default:
		m.Verdict = withinBound
	}
	return m
}

// judgeDigests compares one workload's digests with what the change said of
// it. Undeclared, every seed must agree with the parent: equal digests are
// what makes the host-time numbers two measurements of the same simulated
// work. Declared, some seed must disagree — a declaration nothing bears out
// is a stale flag or a change that does not do what it claims.
func judgeDigests(workload string, declared bool, pairs []DigestPair) (equal bool, problems []string) {
	equal = true
	for _, d := range pairs {
		if d.Parent == d.Change {
			continue
		}
		equal = false
		if !declared {
			problems = append(problems, fmt.Sprintf("%s seed %d: sim_digest %s (parent) != %s (change), and no behaviour change was declared for it",
				workload, d.Seed, d.Parent, d.Change))
		}
	}
	if declared && equal {
		problems = append(problems, fmt.Sprintf("%s: declared as a behaviour change, but its sim_digest equals the parent's on all %d seeds",
			workload, len(pairs)))
	}
	return equal, problems
}

// judgeClaim holds the claimed cell ("workload/metric", checked by
// checkClaim) to the rule a gain is claimed by, which is the improved
// verdict and nothing weaker: within its bound is what every other cell
// must be, not what the claimed one was promised to be.
func judgeClaim(claim string, reports []WorkloadReport) (problem string) {
	workload, metric, _ := strings.Cut(claim, "/")
	for _, w := range reports {
		for _, m := range w.Metrics {
			if w.Name != workload || m.Name != metric || m.Verdict == improved {
				continue
			}
			return fmt.Sprintf("claim %s not met: %s, %d of %d pairs won (%d needed, of at least %d), medians %.4g -> %.4g against a parent IQR of %.4g",
				claim, m.Verdict, m.Wins, len(m.Parent.Runs), (9*len(m.Parent.Runs)+9)/10, minPairs,
				m.Parent.Median, m.Change.Median, m.Parent.Q3-m.Parent.Q1)
		}
	}
	return ""
}

var digestRE = regexp.MustCompile(`sim_digest=([0-9a-f]+)`)

// parseRun reads one benchmark process's standard output: the last line is
// the JSON result, the digest is on the summary line above it.
func parseRun(out []byte) (run, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return run{}, fmt.Errorf("last output line is not the benchmark's JSON result: %w", err)
	}
	if !res.Correct {
		return run{}, errors.New("benchmark reports correct=false")
	}
	d := digestRE.FindAllSubmatch(out, -1)
	if d == nil {
		return run{}, errors.New("no sim_digest in benchmark output")
	}
	r := run{Digest: string(d[len(d)-1][1]), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for name, v := range res.Metrics {
		r.Metrics[name] = v.Value
	}
	return r, nil
}

func runBenchmark(dir string, mf manifest, workload string, seed int) (run, error) {
	args := append(slices.Clone(mf.Command[1:]),
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(mf.RunSeconds), "--trace", "0")
	cmd := exec.Command(mf.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%s in %s: %w", strings.Join(cmd.Args, " "), dir, err)
	}
	return parseRun(out)
}

// measure runs every workload in alternating pairs and judges the result;
// declared names the workloads whose simulated behaviour the change moves.
func measure(mf manifest, dirs map[string]string, pairs int, declared []string) ([]WorkloadReport, []string, error) {
	var reports []WorkloadReport
	var problems []string
	for _, workload := range mf.Workloads {
		w := workload.Name
		wr := WorkloadReport{Name: w, BehaviourChange: slices.Contains(declared, w), Ops: map[string]Ops{}}
		values := map[string]map[string][]float64{"parent": {}, "change": {}}
		for i := 1; i <= pairs; i++ {
			order := []string{"parent", "change"}
			if i%2 == 0 {
				order = []string{"change", "parent"}
			}
			got := map[string]run{}
			for _, s := range order {
				r, err := runBenchmark(dirs[s], mf, w, i)
				if err != nil {
					return nil, nil, err
				}
				fmt.Fprintf(os.Stderr, "perfpair: %s pair %d/%d %-6s wall_s=%.4g alloc_mb=%.4g peak_rss_mb=%.4g digest=%s\n",
					w, i, pairs, s, r.Metrics["wall_s"], r.Metrics["alloc_mb"], r.Metrics["peak_rss_mb"], r.Digest)
				got[s] = r
				ops := wr.Ops[s]
				wr.Ops[s] = Ops{ops.Attempted + r.Attempted, ops.Failed + r.Failed}
				for _, def := range mf.EndToEnd {
					values[s][def.Name] = append(values[s][def.Name], r.Metrics[def.Name])
				}
			}
			wr.Digests = append(wr.Digests, DigestPair{i, order[0], got["parent"].Digest, got["change"].Digest})
		}
		var digestProblems []string
		wr.DigestEqual, digestProblems = judgeDigests(w, wr.BehaviourChange, wr.Digests)
		problems = append(problems, digestProblems...)
		for _, def := range mf.EndToEnd {
			m := compare(def, values["parent"][def.Name], values["change"][def.Name])
			if m.Verdict == regressed {
				problems = append(problems, fmt.Sprintf("%s %s: median worse by %.1f %%, bound %.0f %%",
					w, def.Name, 100*m.Worse, 100*def.Bound))
			}
			wr.Metrics = append(wr.Metrics, m)
		}
		p, c := wr.Ops["parent"], wr.Ops["change"]
		if c.Failed*p.Attempted > p.Failed*c.Attempted {
			problems = append(problems, fmt.Sprintf("%s: failed share rose, %d/%d (parent) -> %d/%d (change)",
				w, p.Failed, p.Attempted, c.Failed, c.Attempted))
		}
		reports = append(reports, wr)
	}
	return reports, problems, nil
}

// firstField returns the value of the first "key : value" line of a /proc
// file, or "" — the environment stamp is best effort.
func firstField(path, key string) string {
	data, _ := os.ReadFile(path)
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func main() {
	parent := flag.String("parent", "", "checkout of the parent commit (required; the change is the current directory)")
	label := flag.String("l", "pair", "label: the report is written to PERF_<label>.json")
	pairs := flag.Int("n", 10, "alternating parent/change pairs per workload")
	warn := flag.Bool("w", false, "warn mode: report problems but exit 0")
	stamp := flag.String("stamp", "", "comma-separated key=value pairs added to the environment stamp")
	behaviour := flag.String("behaviour-change", "", "comma-separated workloads whose simulated behaviour the change moves on purpose: their sim_digest must differ from the parent's, every other one must not")
	claim := flag.String("claim", "", "workload/metric the change claims a gain on: exit 1, warn mode or not, unless its verdict is \"improved\"")
	flag.Parse()
	if *parent == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "perfpair:", err)
		os.Exit(2)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	declared := []string{}
	if *behaviour != "" {
		declared = strings.Split(*behaviour, ",")
	}
	if err := mf.checkDeclared(declared); err != nil {
		fail(err)
	}
	if err := mf.checkClaim(*claim); err != nil {
		fail(err)
	}
	dirs := map[string]string{"parent": *parent, "change": "."}
	reports, problems, err := measure(mf, dirs, *pairs, declared)
	if err != nil {
		fail(err)
	}
	env := map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": firstField("/proc/cpuinfo", "model name"),
	}
	if k, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(k))
	}
	if len(declared) > 0 {
		env["behaviour_change"] = declared
	}
	unmet := ""
	if *claim != "" {
		env["claim"] = *claim
		if unmet = judgeClaim(*claim, reports); unmet != "" {
			problems = append(problems, unmet)
		}
	}
	for _, kv := range strings.Split(*stamp, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok {
			env[k] = v
		}
	}
	rep := Report{Label: *label, Env: env, Pairs: *pairs, Seconds: mf.RunSeconds,
		Workloads: reports, OK: len(problems) == 0, Problems: append([]string{}, problems...)}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	path := "PERF_" + *label + ".json"
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fail(err)
	}
	for _, w := range reports {
		for _, m := range w.Metrics {
			fmt.Printf("%-20s %-12s %10.4g -> %-10.4g %+6.1f %%  wins %d/%d  %s\n", w.Name, m.Name,
				m.Parent.Median, m.Change.Median, 100*(m.Change.Median-m.Parent.Median)/m.Parent.Median,
				m.Wins, *pairs, m.Verdict)
		}
	}
	fmt.Println("wrote", path)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfpair: PROBLEM:", p)
	}
	if unmet != "" || len(problems) > 0 && !*warn {
		os.Exit(1)
	}
}
