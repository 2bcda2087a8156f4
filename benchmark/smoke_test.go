package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// TestManifest pins BENCHMARK.json to the tables in metrics_test.go and
// workloads_test.go.
func TestManifest(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifest()) {
		t.Fatal("BENCHMARK.json is stale: run `go run -C benchmark . -manifest > BENCHMARK.json` from the repository root")
	}
}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks that a run is correct and prints exactly the metrics BENCHMARK.json
// declares for that mode, with the declared units.
func TestSmoke(t *testing.T) {
	var declared struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(file, &declared); err != nil {
		t.Fatal(err)
	}
	for _, w := range declared.Workloads {
		for _, traced := range []bool{false, true} {
			want := declared.EndToEnd
			if traced {
				want = declared.PerLayer
			}
			res, err := run(options{workload: w.Name, seed: 1, seconds: 0.2, trace: traced, scale: scaleToy}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%t: %d of %d ops failed: %v", w.Name, traced, res.Failed, res.Attempted, res.reasons)
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: declared metric %s not printed", w.Name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s trace=%t: %s printed in %q, declared in %q", w.Name, traced, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%t: %s is %v", w.Name, traced, d.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", w.Name, d.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestQuartiles checks the spread statistic against the values Python's
// statistics.quantiles(range(1, 11), n=4) gives.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// Map work asked for by det, reached through a helper package.
		{[]string{"runtime.mapaccess1", "rollrec/internal/ids.MsgID.Less", "rollrec/internal/det.(*Log).scanJournal", "rollrec/internal/fbl.(*Process).transmit"}, "det"},
		{[]string{"runtime.memmove", "rollrec/internal/wire.Encode", "rollrec/internal/sim.(*nodeState).Send"}, "wire"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.futex", "runtime.schedule"}, layerOther},
		{[]string{"time.Now", "rollrec/benchmark.(*stepSpans).probe", "rollrec/internal/sim.(*Kernel).RunContext", "rollrec/internal/cluster.(*Cluster).RunContext"}, "sim"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
