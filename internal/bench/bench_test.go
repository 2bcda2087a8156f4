package bench

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rollrec/internal/cluster"
)

// -update regenerates testdata/BENCH_golden.json from the current tree:
//
//	go test ./internal/bench -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

func TestAxesCellsSortedAndDeduped(t *testing.T) {
	a := Axes{
		Seeds:    []int64{2, 1, 2},
		N:        []int{8, 4},
		Failures: []int{1},
		Profiles: []string{"1995"},
		Styles:   []string{"nonblocking", "blocking", "nonblocking"},
	}
	cells, err := a.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*1*1*2 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if cells[i-1].Key() >= cells[i].Key() {
			t.Fatalf("cells not strictly sorted: %q then %q", cells[i-1].Key(), cells[i].Key())
		}
	}
	if cells[0].Key() != "seed=1/n=4/f=1/hw=1995/style=blocking" {
		t.Fatalf("first cell %q", cells[0].Key())
	}
}

func TestAxesValidation(t *testing.T) {
	base := Axes{
		Seeds: []int64{1}, N: []int{4}, Failures: []int{1},
		Profiles: []string{"1995"}, Styles: []string{"nonblocking"},
	}
	bad := []func(*Axes){
		func(a *Axes) { a.Seeds = nil },
		func(a *Axes) { a.N = []int{1} },
		func(a *Axes) { a.N = []int{cluster.MaxProcs + 1} },
		func(a *Axes) { a.Failures = []int{-1} },
		func(a *Axes) { a.Failures = []int{4} }, // f >= n
		func(a *Axes) { a.Profiles = []string{"2095"} },
		func(a *Axes) { a.Styles = []string{"optimistic"} },
	}
	for i, mutate := range bad {
		a := base
		mutate(&a)
		if _, err := a.Cells(); err == nil {
			t.Errorf("case %d: invalid axes %+v accepted", i, a)
		}
	}
	if _, err := base.Cells(); err != nil {
		t.Fatalf("valid axes rejected: %v", err)
	}
}

func TestSpecForRejectsBadParams(t *testing.T) {
	for _, p := range []Params{
		{Seed: 1, N: 4, Failures: 1, Profile: "nope", Style: "nonblocking"},
		{Seed: 1, N: 4, Failures: 1, Profile: "1995", Style: "nope"},
		{Seed: 1, N: 1, Failures: 0, Profile: "1995", Style: "nonblocking"},
		{Seed: 1, N: 4, Failures: 4, Profile: "1995", Style: "nonblocking"},
		{Seed: 1, N: 4, Failures: -1, Profile: "1995", Style: "nonblocking"},
	} {
		if _, err := SpecFor(p); err == nil {
			t.Errorf("SpecFor(%+v) accepted invalid params", p)
		}
	}
	spec, err := SpecFor(Params{Seed: 7, N: 8, Failures: 2, Profile: "1995", Style: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 8 || spec.F != 2 || spec.Seed != 7 || len(spec.Crashes) != 2 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Crashes[1].At-spec.Crashes[0].At != crashSpacing {
		t.Fatalf("crashes not staggered: %+v", spec.Crashes)
	}
	// Failure-free cells still need tolerance >= 1.
	spec, err = SpecFor(Params{Seed: 1, N: 4, Failures: 0, Profile: "modern", Style: "nonblocking"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.F != 1 || len(spec.Crashes) != 0 {
		t.Fatalf("failure-free spec = %+v", spec)
	}
}

func TestDistOf(t *testing.T) {
	if d := distOf(nil); d != (Dist{}) {
		t.Fatalf("empty dist = %+v", d)
	}
	d := distOf([]time.Duration{4 * time.Millisecond, 2 * time.Millisecond, 6 * time.Millisecond})
	if d.MeanMS != 4 || d.P50MS != 4 || d.P99MS < 5.9 {
		t.Fatalf("dist = %+v", d)
	}
}

// goldenAxes is the fixed-seed 2×2 sweep of the golden-file test: two
// seeds by two styles, small enough to run in a couple of seconds.
func goldenAxes() Axes {
	return Axes{
		Seeds:    []int64{1, 2},
		N:        []int{4},
		Failures: []int{1},
		Profiles: []string{"1995"},
		Styles:   []string{"nonblocking", "blocking"},
	}
}

func goldenMeta() Meta {
	return Meta{Label: "golden", GitRev: "fixed", GoVersion: "fixed"}
}

func encode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSnapshotByteStable is the determinism acceptance test: the
// same sweep run serially and on a 4-worker pool must produce the same
// bytes, and those bytes must match the committed golden file on every
// platform and -cpu setting (CI runs this with -cpu 1,4).
func TestGoldenSnapshotByteStable(t *testing.T) {
	ctx := context.Background()
	serial, err := RunSweep(ctx, goldenAxes(), Options{Workers: 1, Meta: goldenMeta()})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunSweep(ctx, goldenAxes(), Options{Workers: 4, Meta: goldenMeta()})
	if err != nil {
		t.Fatal(err)
	}
	got := encode(t, serial)
	if pooledBytes := encode(t, pooled); !bytes.Equal(got, pooledBytes) {
		t.Fatal("snapshot bytes differ between 1-worker and 4-worker runs")
	}
	for _, c := range serial.Cells {
		if c.Errors != 0 {
			t.Errorf("%s: %d invariant violations", c.Key, c.Errors)
		}
		if c.Recoveries != 1 {
			t.Errorf("%s: %d recoveries, want 1", c.Key, c.Recoveries)
		}
	}

	golden := filepath.Join("testdata", "BENCH_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/bench -run TestGolden -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot deviates from %s byte-for-byte; if the change is intended, "+
			"regenerate with -update and re-seed BENCH_seed.json (see Makefile bench-seed)", golden)
	}

	// The golden snapshot must round-trip through the decoder.
	back, err := Decode(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(serial.Cells) || back.Meta != serial.Meta {
		t.Fatal("decode round-trip lost data")
	}
}

func TestRunSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSweep(ctx, goldenAxes(), Options{Workers: 2, Meta: goldenMeta()}); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := Decode(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// Exactly SchemaVersion decodes; the retired 1 and 2 are as foreign as
	// a future one, and the error says what to do about it.
	for _, schema := range []string{"0", "1", "2", "99"} {
		_, err := Decode(strings.NewReader(`{"meta":{"schema":` + schema + `}}`))
		if err == nil {
			t.Fatalf("schema %s accepted", schema)
		}
		if !strings.Contains(err.Error(), "make bench-seed") {
			t.Fatalf("schema %s: error %q does not say how to regenerate", schema, err)
		}
	}
}

// TestMergedSeedsSweep checks the multi-seed aggregation: one cell per
// configuration covering the whole seed axis, byte-deterministic for any
// worker count, carrying the across-seed spread.
func TestMergedSeedsSweep(t *testing.T) {
	axes := goldenAxes()
	axes.MergeSeeds = true
	ctx := context.Background()
	serial, err := RunSweep(ctx, axes, Options{Workers: 1, Meta: goldenMeta()})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunSweep(ctx, axes, Options{Workers: 4, Meta: goldenMeta()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, serial), encode(t, pooled)) {
		t.Fatal("merged-seed snapshot differs between 1-worker and 4-worker runs")
	}
	if len(serial.Cells) != 2 { // styles only; the seed axis is folded
		t.Fatalf("got %d cells, want 2", len(serial.Cells))
	}
	c := serial.Cells[0]
	if c.Key != "seed=1+2/n=4/f=1/hw=1995/style=blocking" {
		t.Fatalf("merged key %q", c.Key)
	}
	if c.Recoveries != 2 { // one crash per seed
		t.Fatalf("merged cell has %d recoveries, want 2", c.Recoveries)
	}
	if c.AcrossSeeds == nil {
		t.Fatal("merged cell lacks across_seeds")
	}
	sp := c.AcrossSeeds.RecoveryMeanMS
	if !(sp.Min <= sp.Mean && sp.Mean <= sp.Max) || sp.Max == 0 {
		t.Fatalf("across-seed recovery spread inconsistent: %+v", sp)
	}
	// The pooled distribution must match re-aggregating the two single-seed
	// cells of the plain sweep.
	single, err := RunSweep(ctx, goldenAxes(), Options{Workers: 2, Meta: goldenMeta()})
	if err != nil {
		t.Fatal(err)
	}
	var msgs int64
	for _, sc := range single.Cells {
		if sc.Params.Style == "blocking" {
			msgs += sc.CtlMsgs
		}
	}
	if c.CtlMsgs != msgs {
		t.Fatalf("merged ctl_msgs %d != sum of single-seed cells %d", c.CtlMsgs, msgs)
	}
}

func sampleCell(key string, rec, blocked float64, msgs int64, errs int) Cell {
	return Cell{
		Key:      key,
		Recovery: Dist{MeanMS: rec, P50MS: rec, P99MS: rec},
		Blocked:  Dist{MeanMS: blocked, P99MS: blocked},
		CtlMsgs:  msgs, CtlBytes: msgs * 100, SimEvents: 1000,
		Errors: errs,
	}
}

func snapOf(cells ...Cell) *Snapshot {
	return &Snapshot{Meta: Meta{Schema: SchemaVersion}, Cells: cells}
}

func TestCompare(t *testing.T) {
	old := snapOf(sampleCell("a", 100, 10, 20, 0), sampleCell("b", 100, 0, 20, 0))

	if regs, _ := Compare(old, snapOf(sampleCell("a", 100, 10, 20, 0), sampleCell("b", 100, 0, 20, 0)), 0); len(regs) != 0 {
		t.Fatalf("identical snapshots regressed: %v", regs)
	}
	// Within threshold.
	if regs, _ := Compare(old, snapOf(sampleCell("a", 104, 10, 20, 0), sampleCell("b", 100, 0, 20, 0)), 0.05); len(regs) != 0 {
		t.Fatalf("4%% growth regressed at 5%% threshold: %v", regs)
	}
	// Beyond threshold: recovery mean and p99 are both gated (p50 is not).
	regs, _ := Compare(old, snapOf(sampleCell("a", 110, 10, 20, 0), sampleCell("b", 100, 0, 20, 0)), 0.05)
	if len(regs) != 2 {
		t.Fatalf("10%% recovery growth: got %d regressions %v, want 2 (mean+p99)", len(regs), regs)
	}
	// Zero-to-nonzero blocked time is always a regression.
	regs, _ = Compare(old, snapOf(sampleCell("a", 100, 10, 20, 0), sampleCell("b", 100, 5, 20, 0)), 0.5)
	if len(regs) == 0 {
		t.Fatal("blocked time appearing from zero not flagged")
	}
	// Invariant errors gate regardless of threshold.
	regs, _ = Compare(old, snapOf(sampleCell("a", 100, 10, 20, 1), sampleCell("b", 100, 0, 20, 0)), 10)
	if len(regs) != 1 || regs[0].Metric != "errors" {
		t.Fatalf("errors not gated: %v", regs)
	}
	// Missing cell.
	regs, _ = Compare(old, snapOf(sampleCell("a", 100, 10, 20, 0)), 0.05)
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("missing cell not flagged: %v", regs)
	}
	// Extra cell is a note, not a regression.
	regs, notes := Compare(old, snapOf(sampleCell("a", 100, 10, 20, 0), sampleCell("b", 100, 0, 20, 0), sampleCell("c", 1, 0, 1, 0)), 0.05)
	if len(regs) != 0 || len(notes) == 0 {
		t.Fatalf("extra cell: regs=%v notes=%v", regs, notes)
	}
	// Improvements are notes.
	_, notes = Compare(old, snapOf(sampleCell("a", 50, 10, 20, 0), sampleCell("b", 100, 0, 20, 0)), 0.05)
	if len(notes) == 0 {
		t.Fatal("improvement not noted")
	}
}

func TestMarkdown(t *testing.T) {
	s := snapOf(sampleCell("x", 100, 10, 20, 0))
	s.Cells[0].Params = Params{Seed: 1, N: 4, Failures: 1, Profile: "1995", Style: "blocking"}
	var buf bytes.Buffer
	if err := Markdown(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"| seed |", "| 1 | 4 | 1 | 1995 | blocking |", "100.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Fatalf("markdown has %d lines, want 3", lines)
	}
}

// TestLoadedCellSweep runs one offered-load cell end to end: the key gains
// the load suffix, the traffic readouts (offered/shed/client_commit) are
// populated, and a load-free cell from the same binary stays free of them.
func TestLoadedCellSweep(t *testing.T) {
	axes := Axes{
		Seeds:    []int64{1},
		N:        []int{8},
		Failures: []int{1},
		Profiles: []string{"1995"},
		Styles:   []string{"nonblocking"},
		Loads:    []int{100},
	}
	s, err := RunSweep(context.Background(), axes, Options{Workers: 1, Meta: goldenMeta()})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(s.Cells))
	}
	c := s.Cells[0]
	if want := "seed=1/n=8/f=1/hw=1995/style=nonblocking/load=100"; c.Key != want {
		t.Fatalf("cell key %q, want %q", c.Key, want)
	}
	if c.Errors != 0 {
		t.Fatalf("%d invariant violations", c.Errors)
	}
	if c.Offered == 0 {
		t.Error("loaded cell offered no arrivals")
	}
	if c.Outputs == 0 {
		t.Error("loaded cell committed no outputs")
	}
	if c.ClientCommit == nil || c.ClientCommit.P99MS <= 0 {
		t.Errorf("client commit distribution missing or empty: %+v", c.ClientCommit)
	}
	if c.Recoveries != 1 {
		t.Errorf("%d recoveries, want 1", c.Recoveries)
	}
}

// TestLoadedAxesValidation: load values must be non-negative and every
// (n, f) pair must admit a traffic topology.
func TestLoadedAxesValidation(t *testing.T) {
	base := Axes{
		Seeds: []int64{1}, N: []int{8}, Failures: []int{1},
		Profiles: []string{"1995"}, Styles: []string{"nonblocking"},
	}
	neg := base
	neg.Loads = []int{-1}
	if _, err := neg.Cells(); err == nil {
		t.Error("negative load accepted")
	}
	// n=2 under load leaves no backend once a client and frontend are carved out.
	tiny := base
	tiny.N = []int{2}
	tiny.Loads = []int{100}
	if _, err := tiny.Cells(); err == nil {
		t.Error("n=2 loaded axes accepted despite empty backend tier")
	}
	// f larger than the backend tier cannot be assigned victims.
	overf := base
	overf.Failures = []int{5}
	overf.Loads = []int{100}
	if _, err := overf.Cells(); err == nil {
		t.Error("f=5 loaded axes accepted despite 4-backend tier")
	}
}
