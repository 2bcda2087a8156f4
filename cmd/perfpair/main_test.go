package main

import (
	"slices"
	"testing"
)

func TestQuartilesInterpolate(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2, 5})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles of 1..5 = %v %v %v, want 2 3 4", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{1, 2, 3, 4}); q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Fatalf("quartiles of 1..4 = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Fatalf("quartiles of one run = %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "peak_rss_mb", Better: "lower", Bound: 0.25}
	ten := func(base float64, jitter ...float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + jitter[i%len(jitter)]
		}
		return out
	}
	cases := []struct {
		name           string
		def            metricDef
		parent, change []float64
		verdict        string
		wins           int
		outside        []int
	}{
		{"clear gain", lower, ten(290, 0, 1, 2), ten(170, 0, 1, 2), improved, 10, []int{}},
		{"inside the parent's own spread", lower, ten(100, 0, 10, 20), ten(95, 0, 10, 20), withinBound, 10, []int{}},
		{"eight wins are not nine", lower, ten(100, 0, 1), []float64{90, 90, 90, 90, 90, 90, 90, 90, 102, 103}, withinBound, 8, []int{}},
		{"median outside the bound", lower, ten(100, 0, 1), ten(130, 0, 1), regressed, 0, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"one bad pair is reported, not averaged away", lower, ten(100, 0, 1),
			[]float64{100, 101, 100, 160, 100, 101, 100, 101, 100, 101}, withinBound, 0, []int{4}},
		{"parent noisier than the bound", lower, ten(100, 0, 80, -40, 60), ten(100, 10, 70, -30, 50), unresolved, 5, []int{}},
		{"noisy parent, but every run of the change is better", lower, ten(100, 0, 80, -40, 60), ten(20, 0, 1), improved, 10, []int{}},
		{"two pairs claim nothing", lower, []float64{290, 291}, []float64{170, 171}, withinBound, 2, []int{}},
		{"higher is better", metricDef{Name: "rate", Better: "higher", Bound: 0.1}, ten(100, 0, 1), ten(80, 0, 1), regressed, 0,
			[]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for _, tc := range cases {
		m := compare(tc.def, tc.parent, tc.change)
		if m.Verdict != tc.verdict || m.Wins != tc.wins || !slices.Equal(m.PairsOutsideBound, tc.outside) {
			t.Errorf("%s: verdict %s wins %d outside %v (worse by %.3f), want %s %d %v",
				tc.name, m.Verdict, m.Wins, m.PairsOutsideBound, m.Worse, tc.verdict, tc.wins, tc.outside)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := []byte(`  cell seed=1 timed setup=0.0008s digest=38e62647d22053e2
wall_s       median     0.188103 s   min      0.17445 max     0.225402 n=21
ops=45 failed=0 sim_digest=27bc6c171f582bcf (seed 1)
{"correct":true,"attempted":45,"failed":0,"metrics":{"alloc_mb":{"value":110.5,"unit":"MB"},"wall_s":{"value":0.188,"unit":"s"}}}
`)
	r, err := parseRun(out)
	if err != nil {
		t.Fatal(err)
	}
	if r.Digest != "27bc6c171f582bcf" || r.Attempted != 45 || r.Failed != 0 ||
		r.Metrics["alloc_mb"] != 110.5 || r.Metrics["wall_s"] != 0.188 {
		t.Fatalf("parsed %+v", r)
	}
	for name, bad := range map[string]string{
		"no json":      "ops=1 failed=0 sim_digest=ab (seed 1)\n",
		"incorrect":    "sim_digest=ab\n{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{}}\n",
		"no digest":    "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n",
		"empty output": "",
	} {
		if _, err := parseRun([]byte(bad)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// TestJudgeDigests: a digest that differs is a problem exactly when nobody
// said it would, and a declaration is a problem exactly when nothing differs.
func TestJudgeDigests(t *testing.T) {
	same := []DigestPair{{1, "parent", "aa", "aa"}, {2, "change", "bb", "bb"}}
	oneMoved := []DigestPair{{1, "parent", "aa", "aa"}, {2, "change", "bb", "cc"}}
	allMoved := []DigestPair{{1, "parent", "aa", "dd"}, {2, "change", "bb", "cc"}}
	for _, tc := range []struct {
		name     string
		declared bool
		pairs    []DigestPair
		equal    bool
		problems int
	}{
		{"undeclared and equal", false, same, true, 0},
		{"undeclared, one seed moved", false, oneMoved, false, 1},
		{"undeclared, every seed moved", false, allMoved, false, 2},
		{"declared and moved", true, allMoved, false, 0},
		{"declared, moved on one seed only", true, oneMoved, false, 0},
		{"declared, but nothing moved", true, same, true, 1},
	} {
		equal, problems := judgeDigests("w", tc.declared, tc.pairs)
		if equal != tc.equal || len(problems) != tc.problems {
			t.Errorf("%s: equal=%v problems=%q, want equal=%v and %d problems", tc.name, equal, problems, tc.equal, tc.problems)
		}
	}
}

func TestCheckDeclared(t *testing.T) {
	var mf manifest
	for _, n := range []string{"a", "b"} {
		mf.Workloads = append(mf.Workloads, struct {
			Name string `json:"name"`
		}{n})
	}
	if err := mf.checkDeclared([]string{"b", "a"}); err != nil {
		t.Fatal(err)
	}
	if err := mf.checkDeclared(nil); err != nil {
		t.Fatal(err)
	}
	if err := mf.checkDeclared([]string{"a", "c"}); err == nil {
		t.Fatal("a workload the manifest does not have was accepted")
	}
}

// TestClaim: a claim names a cell of the manifest, and only the improved
// verdict meets it — nine wins of ten and medians apart by more than the
// parent's IQR, from at least ten pairs.
func TestClaim(t *testing.T) {
	var mf manifest
	mf.Workloads = append(mf.Workloads, struct {
		Name string `json:"name"`
	}{"fanout"})
	alloc := metricDef{Name: "alloc_mb", Better: "lower", Bound: 0.12}
	mf.EndToEnd = []metricDef{alloc, {Name: "wall_s", Better: "lower", Bound: 0.25}}
	for claim, ok := range map[string]bool{
		"": true, "fanout/alloc_mb": true, "fanout/wall_s": true,
		"fanout": false, "fanout/": false, "gossip/alloc_mb": false, "fanout/rss": false, "alloc_mb/fanout": false,
	} {
		if err := mf.checkClaim(claim); (err == nil) != ok {
			t.Errorf("checkClaim(%q) = %v, want accepted=%v", claim, err, ok)
		}
	}

	ten := func(base float64, jitter ...float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + jitter[i%len(jitter)]
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		met            bool
	}{
		{"ten of ten, far beyond the IQR", ten(270, 0, 4, 8), ten(222, 0, 4, 8), true},
		{"nine of ten", ten(270, 0, 4, 8), append(ten(222, 0, 4, 8)[:9], 300), true},
		{"eight of ten", ten(270, 0, 1), append(ten(222, 0, 1)[:8], 280, 281), false},
		{"every pair won, but by less than the parent's spread", ten(270, 0, 10, 20), ten(265, 0, 10, 20), false},
		{"two pairs prove nothing", []float64{270, 271}, []float64{222, 223}, false},
		{"within its bound is not a gain", ten(270, 0, 1), ten(275, 0, 1), false},
		{"a regression is not a gain", ten(270, 0, 1), ten(400, 0, 1), false},
	} {
		reports := []WorkloadReport{
			{Name: "gossip", Metrics: []MetricReport{compare(alloc, ten(9, 0), ten(9, 0))}}, // a tie elsewhere is not the claim's business
			{Name: "fanout", Metrics: []MetricReport{compare(mf.EndToEnd[1], ten(1, 0), ten(1, 0)), compare(alloc, tc.parent, tc.change)}},
		}
		if problem := judgeClaim("fanout/alloc_mb", reports); (problem == "") != tc.met {
			t.Errorf("%s: judgeClaim = %q, want met=%v", tc.name, problem, tc.met)
		}
	}
}
