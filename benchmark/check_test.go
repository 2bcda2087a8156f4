package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// The repeatability check does what the benchmark's acceptance does: each
// set runs every workload once per seed, one child process at a time, and
// takes per end-to-end metric the median and the interquartile spread as a
// share of the median. A metric passes when every set's spread is within its
// bound and no later set's median is worse than the first's by more than the
// bound (setup_s is exempt from the spread test: it has the widest bound
// because a few milliseconds of set-up are the noisiest thing measured).

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

type setStat struct {
	median, spread float64
}

func checkSets(out io.Writer, sets, seeds int, only string, secs float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := strings.FieldsFunc(only, func(r rune) bool { return r == ',' })
	if len(names) == 0 {
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	}
	// stats[workload][metric] has one entry per set.
	stats := map[string]map[string][]setStat{}
	for set := 1; set <= sets; set++ {
		for _, name := range names {
			samples := map[string][]float64{}
			for seed := 1; seed <= seeds; seed++ {
				res, err := child(exe, name, seed, secs)
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", set, name, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("set %d %s seed %d: %d of %d ops failed", set, name, seed, res.Failed, res.Attempted)
				}
				for _, d := range endToEnd {
					samples[d.Name] = append(samples[d.Name], res.Metrics[d.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set, name, seed)
			}
			if stats[name] == nil {
				stats[name] = map[string][]setStat{}
			}
			for _, d := range endToEnd {
				q1, q3 := quartiles(samples[d.Name])
				m := median(samples[d.Name])
				stats[name][d.Name] = append(stats[name][d.Name], setStat{m, (q3 - q1) / m})
			}
		}
	}

	fmt.Fprintf(out, "| workload | metric | bound |")
	for set := 1; set <= sets; set++ {
		fmt.Fprintf(out, " median %d | spread %d |", set, set)
	}
	fmt.Fprintf(out, " worst vs set 1 | verdict |\n|---|---|---|")
	for set := 1; set <= sets; set++ {
		fmt.Fprintf(out, "---|---|")
	}
	fmt.Fprintf(out, "---|---|\n")
	failed := 0
	for _, name := range names {
		for _, d := range endToEnd {
			st := stats[name][d.Name]
			ok, worst := true, 0.0
			fmt.Fprintf(out, "| %s | %s | %.0f %% |", name, d.Name, d.Bound*100)
			for _, s := range st {
				fmt.Fprintf(out, " %.5g %s | %.1f %% |", s.median, d.Unit, s.spread*100)
				if d.Name != "setup_s" && s.spread > d.Bound {
					ok = false
				}
				// Every end-to-end metric is better when lower.
				worst = max(worst, s.median/st[0].median-1)
			}
			if worst > d.Bound {
				ok = false
			}
			verdict := "PASS"
			if !ok {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(out, " %+.1f %% | %s |\n", worst*100, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric/workload pairs outside their bound", failed)
	}
	return nil
}

// child runs one untraced measurement in its own process and parses the last
// line it prints.
func child(exe, name string, seed int, secs float64) (*result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
