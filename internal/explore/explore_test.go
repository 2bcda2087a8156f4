package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/mutant"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/storage"
	"rollrec/internal/workload"
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
	checkReportGolden(t, "report_n3.golden.json", Spec{N: 3, F: 1, Seed: 1, MaxCrashes: 1})
}

// TestReportGoldenN4TwoCrash is the all-families two-crash sweep, what
// `go run ./cmd/explore -n 4 -max-crashes 2 -random 50 -out` writes: second
// crashes aimed inside observed recoveries plus 50 seeded-random multi-crash
// branches per family, with zero violations.
func TestReportGoldenN4TwoCrash(t *testing.T) {
	checkReportGolden(t, "report_n4_2crash.golden.json", Spec{N: 4, F: 1, Seed: 1, MaxCrashes: 2, Random: 50})
}

// TestReportGoldenN4ThreeCrash is the FBL three-crash sweep at f = 3, what
// `go run ./cmd/explore -families fbl -n 4 -f 3 -max-crashes 3 -random 50
// -out` writes: a third crash aimed inside the recoveries of the second, up
// to the failure budget, with zero violations.
func TestReportGoldenN4ThreeCrash(t *testing.T) {
	checkReportGolden(t, "report_n4_3crash.golden.json", fblThreeCrash)
}

// fblThreeCrash is the axes of report_n4_3crash.golden.json.
var fblThreeCrash = Spec{Family: FamilyFBL, N: 4, F: 3, Seed: 1, MaxCrashes: 3, Random: 50}

// TestReportGoldenPoisoned: the goldens read byte for byte the same with
// every frame buffer poisoned as its kernel takes it back
// (sim.TestingPoisonFrames), so no family reads a payload after its Deliver
// returned without the copy Keep makes.
//
// Not parallel: the hook is package-global, set before run because the
// branch workers read it.
func TestReportGoldenPoisoned(t *testing.T) {
	sim.TestingPoisonFrames = true
	t.Cleanup(func() { sim.TestingPoisonFrames = false })
	checkReportGolden(t, "report_n3.golden.json", Spec{N: 3, F: 1, Seed: 1, MaxCrashes: 1})
	checkReportGolden(t, "report_n4_2crash.golden.json", Spec{N: 4, F: 1, Seed: 1, MaxCrashes: 2, Random: 50})
	checkReportGolden(t, "report_n4_3crash.golden.json", fblThreeCrash)
}

// checkReportGolden runs the rows with the axes of base and compares the
// JSON report byte-for-byte against testdata/name.
func checkReportGolden(t *testing.T, name string, base Spec) {
	got := rows(t, base, runtime.GOMAXPROCS(0))
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("explorer report diverged from testdata/%s:\n%s", name, got)
	}
}

// rows explores the five family/style rows, or the three FBL ones when base
// names FamilyFBL (`-families fbl`), with the axes of base on the given
// number of branch workers and returns the reports as cmd/explore -out
// writes them.
func rows(t *testing.T, base Spec, workers int) []byte {
	t.Helper()
	specs := []Spec{
		{Family: FamilyFBL, Style: recovery.NonBlocking},
		{Family: FamilyFBL, Style: recovery.Blocking},
		{Family: FamilyFBL, Style: recovery.Manetho},
		{Family: FamilyCoordinated},
		{Family: FamilyOptimistic},
	}
	if base.Family == FamilyFBL {
		specs = specs[:3]
	}
	var reports []*Report
	for _, spec := range specs {
		spec.N, spec.F, spec.Seed, spec.MaxCrashes, spec.Random = base.N, base.F, base.Seed, base.MaxCrashes, base.Random
		rep, err := run(context.Background(), spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	got, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCorpusReplaysClean replays every plan kept under testdata/cx — each a
// schedule an explorer run once found violating, fixed since — under every
// FBL recovery style, and wants no violation. The n5-f3 plans are the
// restore window's: a third crash while an earlier victim still read its
// checkpoint, whose premature depinfo reply let a gather finish without it.
func TestCorpusReplaysClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "cx", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus under testdata/cx (%v)", err)
	}
	for _, path := range paths {
		cx, err := LoadCounterexample(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking, recovery.Manetho} {
			cx.Spec.Style = style
			res, err := Replay(context.Background(), cx)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) > 0 {
				t.Errorf("%s (%v) %v: %d violations, first: %s",
					filepath.Base(path), style, cx.Plan, len(res.Violations), res.Violations[0])
			}
		}
	}
}

// TestParallelReportMatchesSerial runs explorations on 1, 2 and 5 branch
// workers and requires byte-identical reports: the pool must be invisible in
// the output. The two-crash sweep covers all three levels; the mutant (see
// TestMutationDetected) covers violations, their serial minimization and
// the order of the counterexamples.
//
// Not parallel: mutant.On is package-global, and it is set before run
// because the branch workers read it.
func TestParallelReportMatchesSerial(t *testing.T) {
	sweep := Spec{N: 4, F: 1, Seed: 1, MaxCrashes: 2, Random: 50}
	mutantReport := func(workers int) []byte {
		mutant.On = mutant.DropDetPiggyback
		defer func() { mutant.On = mutant.None }()
		rep, err := run(context.Background(), fblMutationSpec(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Counterexamples) < 2 {
			t.Fatalf("mutant yields %d counterexamples, the order check needs two", len(rep.Counterexamples))
		}
		got, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	serialSweep, serialMutant := rows(t, sweep, 1), mutantReport(1)
	for _, workers := range []int{2, 5} {
		if got := rows(t, sweep, workers); !bytes.Equal(got, serialSweep) {
			t.Errorf("two-crash sweep on %d workers diverged from the serial report:\n%s", workers, got)
		}
		if got := mutantReport(workers); !bytes.Equal(got, serialMutant) {
			t.Errorf("mutant on %d workers diverged from the serial report:\n%s", workers, got)
		}
	}
}

// TestCancelMidLevel cancels the context while the tenth cluster of the
// exploration is built — the probe run builds the first, so level 1 is
// under way on four workers. Run must return ctx.Err() and no report, stop
// handing out branches, and leave no branch worker behind.
//
// Not parallel: the scenario table is package-global, and it is swapped
// before run because the branch workers read it.
func TestCancelMidLevel(t *testing.T) {
	orig := scenarios[FamilyFBL]
	t.Cleanup(func() { scenarios[FamilyFBL] = orig })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var built atomic.Int64
	sc := orig
	sc.app = func(n int) workload.Factory {
		if built.Add(1) == 10 {
			cancel()
		}
		return orig.app(n)
	}
	scenarios[FamilyFBL] = sc

	spec := testSpec(FamilyFBL, recovery.NonBlocking)
	before := runtime.NumGoroutine()
	rep, err := run(ctx, spec, 4)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("cancelled exploration returned (%v, %v), want (nil, context.Canceled)", rep, err)
	}
	if all := int64(1 + spec.MaxPoints*3); built.Load() >= all {
		t.Fatalf("all %d clusters were built after cancellation", all)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBadInputIsAnError feeds Run and Replay specs and plans no exploration
// could have written: each is an error that names the problem, and none
// panics.
func TestBadInputIsAnError(t *testing.T) {
	fblSpec := Spec{Family: FamilyFBL, N: 3}
	for _, tc := range []struct {
		name string
		spec Spec
		plan failure.Plan // nil: Run and Replay; else Replay only
		want string
	}{
		{"unknown family", Spec{Family: "bogus"}, nil, `unknown family "bogus"`},
		{"no family", Spec{N: 3}, nil, `unknown family ""`},
		{"unknown style", Spec{Family: FamilyFBL, Style: 7}, nil, "unknown recovery style(7)"},
		{"n=1", Spec{Family: FamilyFBL, N: 1}, nil, "cluster size n=1 out of range"},
		{"n too large", Spec{Family: FamilyOptimistic, N: 5000}, nil, "cluster size n=5000 out of range"},
		{"f below one", Spec{Family: FamilyCoordinated, F: -1}, nil, "failure budget f=-1"},
		{"negative points", Spec{Family: FamilyFBL, MaxPoints: -1}, nil, "negative count"},
		{"horizon inside the slack", Spec{Family: FamilyCoordinated, Horizon: 5 * time.Second}, nil, "horizon 5s leaves no decision window before the settle slack 6s"},
		{"horizon equal to the slack", Spec{Family: FamilyFBL, Horizon: 3 * time.Second, SettleSlack: 3 * time.Second}, nil, "horizon 3s leaves no decision window before the settle slack 3s"},
		{"negative horizon", Spec{Family: FamilyFBL, Horizon: -time.Second}, nil, "horizon -1s leaves no decision window before the settle slack 6s"},
		{"negative slack", Spec{Family: FamilyFBL, SettleSlack: -time.Second}, nil, "negative count or duration"},
		{"negative checkpoint interval", Spec{Family: FamilyOptimistic, CheckpointEvery: -time.Second}, nil, "checkpoint interval -1s is negative"},
		{"victim outside the cluster", fblSpec, failure.Plan{{Step: 50, Proc: 9}}, "plan entry 0 (proc 9, step 50"},
		{"storage victim", fblSpec, failure.Plan{{Step: 50, Proc: 0}, {Step: 60, Proc: ids.StorageProc}}, "plan entry 1 (proc -1, step 60"},
		{"negative step", fblSpec, failure.Plan{{Step: -4, Proc: 1}}, "plan entry 0 (proc 1, step -4"},
		{"negative time", fblSpec, failure.Plan{{At: -time.Second, Proc: 1}}, "at -1s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(what string, err error) {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: got error %v, want one containing %q", what, err, tc.want)
				}
			}
			if tc.plan == nil {
				_, err := Run(context.Background(), tc.spec)
				check("Run", err)
			}
			_, err := Replay(context.Background(), Counterexample{Spec: tc.spec, Plan: tc.plan})
			check("Replay", err)
		})
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

// TestStatsCountWindows: -stats reads the coordinator's window count off
// every run, so events per window shows without a profiler, and the report's
// JSON (the goldens) does not carry it.
func TestStatsCountWindows(t *testing.T) {
	spec := testSpec(FamilyFBL, recovery.NonBlocking)
	spec.MaxPoints = 4
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Stats; st.Windows <= 0 || st.Windows > st.Events {
		t.Fatalf("%d windows for %d events over %d runs; every window dispatches at least one event",
			st.Windows, st.Events, st.Runs)
	}
	if j, _ := json.Marshal(rep); strings.Contains(strings.ToLower(string(j)), "windows") {
		t.Fatalf("report JSON carries the window count: %s", j)
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
// (runtime.MemStats deltas, which count every goroutine's allocations, so
// nothing may run beside it: the t.Parallel tests of this package start
// after it, every Run of the tests before it joined its branch workers
// before returning, and this test calls runBranch serially on its own
// goroutine rather than through the pool). The limits are what the tree
// read once the idle path stopped allocating, 146.0 KB and 1 151
// allocations, plus 10 %; before that a branch was
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
		plan := failure.Plan{{Step: points[b/spec.N], Proc: ids.ProcID(b % spec.N)}}
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

// sendCtx is a workload.Ctx that records what an app sends and charges.
type sendCtx struct {
	self  ids.ProcID
	sends []storage.Image
	work  int64
}

func (c *sendCtx) Self() ids.ProcID                   { return c.self }
func (c *sendCtx) N() int                             { return 3 }
func (c *sendCtx) Send(_ ids.ProcID, p storage.Image) { c.sends = append(c.sends, p) }
func (c *sendCtx) Work(d int64)                       { c.work += d }
func (c *sendCtx) Output([]byte)                      {}

// TestTruncatedPayloadIsRejected feeds each scenario app a real payload cut
// one byte short: Handle must return an error and change nothing.
func TestTruncatedPayloadIsRejected(t *testing.T) {
	for _, tc := range []struct {
		name     string
		f        workload.Factory
		from, to ids.ProcID
	}{
		{"ring", ring(3), 0, 1},
		{"funnel", funnel(3), 1, 0},
	} {
		start := &sendCtx{self: tc.from}
		tc.f(tc.from, 3).Start(start)
		if len(start.sends) == 0 {
			t.Fatalf("%s: p%d sends nothing at start", tc.name, tc.from)
		}
		payload := start.sends[0]
		app, ctx := tc.f(tc.to, 3), &sendCtx{self: tc.to}
		before := app.Digest()
		cut := storage.Image{Data: payload.Data[:len(payload.Data)-1], Pad: payload.Pad}
		if err := app.Handle(ctx, tc.from, cut); err == nil {
			t.Errorf("%s: truncated payload accepted", tc.name)
		}
		if app.Digest() != before || len(ctx.sends) != 0 || ctx.work != 0 {
			t.Errorf("%s: rejected payload changed the app", tc.name)
		}
	}
}
