package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"rollrec/internal/cluster"
)

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

// goldenAxes is the Makefile's BENCH_AXES (the axes of the committed
// BENCH_seed.json): two seeds by two styles, small enough to run in a
// couple of seconds.
func goldenAxes() Axes {
	return Axes{
		Seeds:    []int64{1, 2},
		N:        []int{4},
		Failures: []int{1},
		Profiles: []string{"1995"},
		Styles:   []string{"nonblocking", "blocking"},
		Loads:    []int{0},
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
// BENCH_AXES sweep run serially and on a 4-worker pool must produce the
// same bytes, and its axes and cells must equal the committed
// BENCH_seed.json's on every platform and -cpu setting (CI runs this with
// -cpu 1,4). Meta is ignored: label, git revision and toolchain differ.
func TestGoldenSnapshotByteStable(t *testing.T) {
	ctx := context.Background()
	serial, err := runSweep(ctx, goldenAxes(), goldenMeta(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := runSweep(ctx, goldenAxes(), goldenMeta(), 4)
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

	seed, err := ReadSnapshot("../../BENCH_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Axes, seed.Axes) {
		t.Fatalf("axes %+v, BENCH_seed.json has %+v", serial.Axes, seed.Axes)
	}
	if !reflect.DeepEqual(serial.Cells, seed.Cells) {
		t.Fatal("cells deviate from BENCH_seed.json; if the change is intended, " +
			"regenerate it with `make bench-seed`")
	}

	// The snapshot must round-trip through the decoder.
	back, err := DecodeSnapshot(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, back), got) {
		t.Fatal("decode round-trip changed the snapshot")
	}
}

func TestRunSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runSweep(ctx, goldenAxes(), goldenMeta(), 2); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := DecodeSnapshot(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// Exactly SchemaVersion decodes; the retired 1 and 2 are as foreign as
	// a future one, and the error says what to do about it.
	for _, schema := range []string{"0", "1", "2", "99"} {
		_, err := DecodeSnapshot(strings.NewReader(`{"meta":{"schema":` + schema + `}}`))
		if err == nil {
			t.Fatalf("schema %s accepted", schema)
		}
		if !strings.Contains(err.Error(), "make bench-seed") {
			t.Fatalf("schema %s: error %q does not say how to regenerate", schema, err)
		}
	}
}

func TestMarkdown(t *testing.T) {
	s := &Snapshot{Meta: Meta{Schema: SchemaVersion}, Cells: []Cell{{
		Key:      "x",
		Params:   Params{Seed: 1, N: 4, Failures: 1, Profile: "1995", Style: "blocking"},
		Recovery: Dist{MeanMS: 100, P50MS: 100, P99MS: 100},
		Blocked:  Dist{MeanMS: 10, P99MS: 10},
		CtlMsgs:  20, CtlBytes: 2000, SimEvents: 1000,
	}}}
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
	s, err := runSweep(context.Background(), axes, goldenMeta(), 1)
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
