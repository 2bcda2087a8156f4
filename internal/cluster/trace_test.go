package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/trace"
	"rollrec/internal/workload"
)

func tracedConfig(rec *trace.Recorder) Config {
	return Config{
		N:               8,
		F:               2,
		Seed:            1,
		Style:           recovery.NonBlocking,
		App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
		CheckpointEvery: 4 * time.Second,
		StatePad:        1 << 20,
		Tracer:          rec,
	}
}

// TestTraceTwoFailureGatherRestart drives the paper's second experiment
// (a live process dies mid-gather) and asserts the exported trace shows the
// leader's round being aborted and restarted after the second victim
// re-announces: gather → gather-abort → announce(p5) → gather.
func TestTraceTwoFailureGatherRestart(t *testing.T) {
	rec := trace.NewRecorder(1 << 20)
	c := New(tracedConfig(rec))
	c.Crash(10*time.Second, 3)
	c.Crash(14100*time.Millisecond, 5)
	c.Run(45 * time.Second)
	if errs := c.Check(); len(errs) > 0 {
		t.Fatalf("invariants violated: %v", errs[0])
	}
	if rec.Dropped() > 0 {
		t.Fatalf("ring dropped %d events; capacity too small for the assertion", rec.Dropped())
	}

	events := rec.Events()
	// Scan for the causal subsequence on the leader's (p3's) track.
	stage := 0
	for _, e := range events {
		switch stage {
		case 0: // p3's first gather round begins
			if e.Proc == 3 && e.Name == trace.EvGather {
				stage = 1
			}
		case 1: // that round is aborted (p5 died mid-gather)
			if e.Proc == 3 && e.Name == trace.EvGatherAbort {
				stage = 2
			}
		case 2: // p5 comes back and re-announces with a fresh incarnation
			if e.Proc == 5 && e.Name == trace.EvAnnounce {
				stage = 3
			}
		case 3: // the leader runs a fresh gather round
			if e.Proc == 3 && e.Name == trace.EvGather {
				stage = 4
			}
		}
	}
	if stage != 4 {
		t.Fatalf("gather → abort → re-announce → gather sequence not found (reached stage %d)", stage)
	}

	// Both victims must have completed a replay span.
	replayed := map[int32]bool{}
	for _, e := range events {
		if e.Name == trace.EvReplay && e.Span && !e.Open {
			replayed[e.Proc] = true
		}
	}
	if !replayed[3] || !replayed[5] {
		t.Fatalf("closed replay spans missing: %v", replayed)
	}
}

// chromeEvent mirrors the subset of the trace-event schema the export uses.
type chromeEvent struct {
	Ph   string  `json:"ph"`
	TID  int32   `json:"tid"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Name string  `json:"name"`
}

// TestTraceChromeExport runs the README's single-failure scenario and
// asserts the Chrome export is valid JSON with at least one span per live
// process and the named recovery-phase spans present.
func TestTraceChromeExport(t *testing.T) {
	rec := trace.NewRecorder(1 << 20)
	c := New(tracedConfig(rec))
	c.Crash(10*time.Second, 3)
	c.Run(30 * time.Second)
	if errs := c.Check(); len(errs) > 0 {
		t.Fatalf("invariants violated: %v", errs[0])
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export is empty")
	}

	spansPer := map[int32]int{}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spansPer[e.TID]++
			names[e.Name] = true
		}
	}
	for i := int32(0); i < 8; i++ {
		if i == 3 {
			continue // the victim has spans too, but it is not required here
		}
		if spansPer[i] == 0 {
			t.Errorf("live process p%d has no spans", i)
		}
	}
	for _, phase := range []string{trace.EvRestore, trace.EvWaiting, trace.EvGather, trace.EvReplay} {
		if !names[phase] {
			t.Errorf("recovery-phase span %q missing from export", phase)
		}
	}
}

// TestTraceDisabledByDefault asserts that a cluster without a tracer runs
// with the no-op implementation: the Env must still return a usable tracer.
func TestTraceDisabledByDefault(t *testing.T) {
	c := New(Config{
		N:     4,
		F:     1,
		Seed:  1,
		Style: recovery.NonBlocking,
		App:   workload.NewRandomPeer(1, 1000, 64, int64(time.Millisecond)),
	})
	c.Run(2 * time.Second)
	tr := c.K.Metrics(ids.ProcID(0)) // metrics exist
	if tr == nil {
		t.Fatal("metrics missing")
	}
}

// TestTextLogShardInvariant renders the golden scenario of every family as
// the plain-text event log (trace.WriteText over a trace.Recorder) and
// requires the same bytes on 1, 2 and 4 shards: the log orders by virtual
// time, then process, then each process's own recording order, none of
// which the partitioning can move. The rollback families' logs must show
// their rollbacks.
func TestTextLogShardInvariant(t *testing.T) {
	for _, fam := range []Family{FamilyFBL, FamilyCoordinated, FamilyOptimistic} {
		t.Run(string(fam), func(t *testing.T) {
			var first []byte
			for _, shards := range []int{1, 2, 4} {
				rec := trace.NewRecorder(1 << 20)
				cfg := goldenConfig(rec)
				cfg.Family, cfg.Shards = fam, shards
				c := New(cfg)
				c.ApplyPlan(goldenPlan())
				c.Run(goldenHorizon)
				if rec.Dropped() > 0 {
					t.Fatalf("ring dropped %d events", rec.Dropped())
				}
				var buf bytes.Buffer
				if err := trace.WriteText(&buf, rec.Events()); err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = buf.Bytes()
					rollbacks := bytes.Count(first, []byte(" "+trace.EvRollback+" "))
					t.Logf("%d lines, %d rollbacks", bytes.Count(first, []byte("\n")), rollbacks)
					if (fam != FamilyFBL) != (rollbacks > 0) {
						t.Errorf("%d rollback lines in a %s log", rollbacks, fam)
					}
					continue
				}
				if !bytes.Equal(buf.Bytes(), first) {
					t.Errorf("shards=%d: text log differs from 1 shard's", shards)
				}
			}
		})
	}
}
