package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
)

// testSpec returns a spec sized for CI: fewer decision points than the
// defaults, same invariant catalog.
func testSpec(fam Family, style recovery.Style) Spec {
	return Spec{Family: fam, Style: style, MaxPoints: 12}
}

// TestExploreCleanAllFamilies is the n=3 bounded-exhaustive gate: every
// single-crash schedule over the sampled decision points must satisfy the
// full invariant catalog, for all three protocol families (and all three
// FBL recovery styles).
func TestExploreCleanAllFamilies(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"fbl-nonblocking", testSpec(FamilyFBL, recovery.NonBlocking)},
		{"fbl-blocking", testSpec(FamilyFBL, recovery.Blocking)},
		{"fbl-manetho", testSpec(FamilyFBL, recovery.Manetho)},
		{"coordinated", testSpec(FamilyCoordinated, 0)},
		{"optimistic", testSpec(FamilyOptimistic, 0)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Points == 0 {
				t.Fatalf("no decision points derived (baseline events %d)", rep.BaselineEvents)
			}
			if rep.Branches == 0 {
				t.Fatal("no branches explored")
			}
			for _, cx := range rep.Counterexamples {
				t.Errorf("counterexample:\n%s", cx)
			}
			if rep.Violations != 0 {
				t.Fatalf("%d violations across %d branches", rep.Violations, rep.Branches)
			}
			t.Logf("%s: %d points, %d branches, baseline %d events, fingerprint %#x",
				tc.name, rep.Points, rep.Branches, rep.BaselineEvents, rep.Fingerprint)
		})
	}
}

// TestReportGoldenN3 compares a fresh run of the CI pass — what
// `go run ./cmd/explore -out` writes: all five family/style rows at n=3 with
// the default axes — byte-for-byte against the committed report. The
// double-run gate only proves two runs agree with each other; this proves
// they agree with the past, so a refactor that shifts every branch equally
// is caught. Regenerate (with that command) only for an intended behaviour
// change.
func TestReportGoldenN3(t *testing.T) {
	var reports []*Report
	for _, spec := range []Spec{
		{Family: FamilyFBL, Style: recovery.NonBlocking},
		{Family: FamilyFBL, Style: recovery.Blocking},
		{Family: FamilyFBL, Style: recovery.Manetho},
		{Family: FamilyCoordinated},
		{Family: FamilyOptimistic},
	} {
		spec.N, spec.F, spec.Seed, spec.MaxCrashes = 3, 1, 1, 1
		rep, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	got, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report_n3.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("explorer report diverged from testdata/report_n3.golden.json:\n%s", got)
	}
}

// TestSameVictimRecrashIsLive re-crashes one process while it is still
// recovering from its first crash — two applied crashes, one recovery that
// answers for both, well within f. A liveness clause that counts recoveries
// against crashes reports every such schedule; the per-process clause must
// not. The pinned plan is one the n=4 depth-2 pass generates (crash p0 at
// boot, again at the restart of its recovery).
func TestSameVictimRecrashIsLive(t *testing.T) {
	spec := Spec{Family: FamilyFBL, N: 4, F: 1, MaxPoints: 400, MaxCrashes: 2}
	res, err := Replay(context.Background(), Counterexample{
		Spec: spec,
		Plan: failure.Plan{{Step: 1, Proc: 0}, {Step: 113, Proc: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("same-victim re-crash reported: %s", v)
	}
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cx := range rep.Counterexamples {
		t.Errorf("counterexample:\n%s", cx)
	}
}

// TestExploreDeterministicReport pins the CI double-run gate: two
// explorations of the same spec must produce byte-identical reports,
// including the fold over every branch fingerprint.
func TestExploreDeterministicReport(t *testing.T) {
	spec := testSpec(FamilyFBL, recovery.NonBlocking)
	spec.MaxPoints = 8
	spec.Random = 4
	spec.MaxCrashes = 2
	spec.DeepBranches = 6
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("reports diverged:\n%s\n%s", ja, jb)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverged: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
}

// TestExploreMultiCrash drives the depth-2 pass (second crash aimed inside
// observed recoveries) plus the random frontier on the coordinated family.
func TestExploreMultiCrash(t *testing.T) {
	spec := testSpec(FamilyCoordinated, 0)
	spec.MaxPoints = 6
	spec.MaxCrashes = 2
	spec.DeepBranches = 9
	spec.Random = 3
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cx := range rep.Counterexamples {
		t.Errorf("counterexample:\n%s", cx)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violations across %d branches", rep.Violations, rep.Branches)
	}
	if rep.Branches <= rep.Points*spec.N {
		t.Fatalf("expected deep/random branches beyond the %d singles, got %d total",
			rep.Points*spec.N, rep.Branches)
	}
}

// TestCounterexampleRoundTrip checks save/load JSON fidelity.
func TestCounterexampleRoundTrip(t *testing.T) {
	cx := Counterexample{
		Spec:        testSpec(FamilyFBL, recovery.Blocking).withDefaults(),
		Violations:  []string{"orphan: proc 2 delivered beyond stable frontier"},
		Fingerprint: 0xdeadbeef,
		Events:      1234,
	}
	cx.Plan = append(cx.Plan, failure.Crash{Step: 17, Proc: 1})
	path := filepath.Join(t.TempDir(), "cx", "case-0.json")
	if err := SaveCounterexample(path, cx); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCounterexample(path)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(cx)
	jb, _ := json.Marshal(got)
	if string(ja) != string(jb) {
		t.Fatalf("round trip diverged:\n%s\n%s", ja, jb)
	}
}

// TestBranchAllocBudget is the tier-1 reading of what the host-time
// benchmark's explorer cell measures: 50 single-crash FBL non-blocking
// branches at n=4 may not cost more than 161 KB and 1 270 allocations each
// (runtime.MemStats deltas; no test of this package runs beside this one,
// the parallel ones start after it). The limits are what the PR 24 tree
// reads, 146.0 KB and 1 151 allocations, plus 10 %; before it a branch was
// 218.8 KB and 3 076, the difference being a frame and a timer handle per
// heartbeat tick and histograms that held every octave below their
// millisecond latencies. A change that trips this moves `alloc_mb` on
// explore_n4_sweep by as much.
func TestBranchAllocBudget(t *testing.T) {
	const (
		branches  = 50
		maxBytes  = 161 << 10
		maxAllocs = 1270
	)
	ctx := context.Background()
	spec := Spec{Family: FamilyFBL, Style: recovery.NonBlocking, N: 4}.withDefaults()
	base, err := runBranch(ctx, spec, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	points := selectPoints(base.points, (branches+spec.N-1)/spec.N)
	if len(points)*spec.N < branches {
		t.Fatalf("%d decision points for %d branches", len(points), branches)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < branches; b++ {
		plan := failure.Plan{{Step: points[b/spec.N].Step, Proc: ids.ProcID(b % spec.N)}}
		res, err := runBranch(ctx, spec, plan, false)
		if err != nil {
			t.Fatal(err)
		}
		if v := checkBranch(base, res, plan, base.events*int64(spec.BudgetFactor)+20_000); len(v) > 0 {
			t.Fatalf("branch %v: %v", plan, v)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / branches
	allocs := (after.Mallocs - before.Mallocs) / branches
	t.Logf("a branch costs %.1f KB in %d allocations", float64(bytes)/1024, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("a branch costs %.1f KB in %d allocations, budget %d KB and %d", float64(bytes)/1024, allocs, maxBytes>>10, maxAllocs)
	}
}
