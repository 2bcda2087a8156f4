package experiments

import (
	"bytes"
	"context"
	"testing"
	"time"

	"rollrec/internal/timeline"
)

// d11TestTimelines runs the short D11 crash cell used by the tests (server
// crash at 3 s, 12 s horizon — the same cell the CI smoke job samples).
func d11TestTimelines(t *testing.T) []Timeline {
	t.Helper()
	return D11Timelines(context.Background(), 1, 100*time.Millisecond, 3*time.Second, 12*time.Second)
}

// TestD11TimelineBacklogShape is the tentpole's acceptance criterion: in
// every style's crash run, the server's output-commit backlog rises at the
// crash marker and drains only after the recovery-end marker. The victim
// stops requesting outputs while it is down, so the rise shows in the
// backlog-age series (oldest_open_ms climbs tick for tick from the crash
// on) while the open count certifies the freeze: no straddler is released
// inside the outage, and the first drain of either series lands strictly
// after recovery end.
func TestD11TimelineBacklogShape(t *testing.T) {
	for _, tl := range d11TestTimelines(t) {
		e := tl.Export
		crash, ok := e.MarkerAt(timeline.MarkCrash, 0)
		if !ok {
			t.Errorf("%s: no crash marker for the server", tl.Style)
			continue
		}
		end, ok := e.MarkerAt(timeline.MarkRecoveryEnd, 0)
		if !ok {
			t.Errorf("%s: no recovery-end marker for the server", tl.Style)
			continue
		}
		if end.TMS <= crash.TMS {
			t.Errorf("%s: recovery end %v not after crash %v", tl.Style, end.TMS, crash.TMS)
			continue
		}

		backlog := e.ProcBacklog(0)
		age := e.ProcOldest(0)
		// atCrash: the last sample at or before the crash instant (the
		// sampler runs before same-time events, so this is pre-crash state).
		atCrash := -1
		for i, tk := range e.Ticks {
			if tk.TMS <= crash.TMS {
				atCrash = i
			}
		}
		if atCrash < 0 || backlog[atCrash] == 0 {
			t.Errorf("%s: no open outputs at the crash (tick %d); the scenario lost its point", tl.Style, atCrash)
			continue
		}

		inside := 0
		for i, tk := range e.Ticks {
			if tk.TMS <= crash.TMS || tk.TMS >= end.TMS {
				continue
			}
			inside++
			// The frozen straddlers must not be released inside the outage...
			if backlog[i] < backlog[atCrash] {
				t.Errorf("%s: open count fell %d → %d at t=%vms, inside the outage",
					tl.Style, backlog[atCrash], backlog[i], tk.TMS)
			}
			// ...so the backlog age rises tick for tick from the crash marker.
			if age[i] <= age[i-1] {
				t.Errorf("%s: backlog age stopped rising at t=%vms (%v → %v), inside the outage",
					tl.Style, tk.TMS, age[i-1], age[i])
			}
		}
		if inside < 2 {
			t.Errorf("%s: only %d samples inside the outage", tl.Style, inside)
		}

		// Drain only after recovery end: scanning from the crash, the first
		// tick where the age series falls must land strictly after the
		// recovery-end marker — and it must exist (the straddlers do
		// commit), collapsing the age from outage scale back down.
		firstDrop := -1
		for i := atCrash + 1; i < len(e.Ticks); i++ {
			if age[i] < age[i-1] {
				firstDrop = i
				break
			}
		}
		if firstDrop < 0 {
			t.Errorf("%s: backlog never drained by the horizon", tl.Style)
			continue
		}
		if at := e.Ticks[firstDrop].TMS; at <= end.TMS {
			t.Errorf("%s: backlog drained at t=%vms, before recovery ended at %vms",
				tl.Style, at, end.TMS)
		}
		if peak := age[firstDrop-1]; age[firstDrop] > peak/2 {
			t.Errorf("%s: post-recovery drain is not a collapse: %vms → %vms",
				tl.Style, peak, age[firstDrop])
		}
	}
}

// TestD11TimelinesDeterministic: two invocations of the sampled cells must
// export byte-identical JSON and CSV for every style.
func TestD11TimelinesDeterministic(t *testing.T) {
	render := func() map[string][2][]byte {
		out := map[string][2][]byte{}
		for _, tl := range d11TestTimelines(t) {
			var j, c bytes.Buffer
			if err := tl.Export.Encode(&j); err != nil {
				t.Fatal(err)
			}
			if err := tl.Export.EncodeCSV(&c); err != nil {
				t.Fatal(err)
			}
			out[tl.Style] = [2][]byte{j.Bytes(), c.Bytes()}
		}
		return out
	}
	a, b := render(), render()
	for style, fa := range a {
		fb := b[style]
		if !bytes.Equal(fa[0], fb[0]) {
			t.Errorf("%s: JSON exports differ across identical runs", style)
		}
		if !bytes.Equal(fa[1], fb[1]) {
			t.Errorf("%s: CSV exports differ across identical runs", style)
		}
	}
}

// TestSpecTimelineAttaches: the Spec hook samples a run end to end and the
// per-style kernel probes populate style-specific gauges.
func TestSpecTimelineAttaches(t *testing.T) {
	for _, tl := range d11TestTimelines(t) {
		e := tl.Export
		if want := int(12 * time.Second / (100 * time.Millisecond)); len(e.Ticks) != want {
			t.Errorf("%s: %d ticks, want %d", tl.Style, len(e.Ticks), want)
		}
		if e.Meta.N != 8 || e.Meta.Schema != timeline.SchemaVersion {
			t.Errorf("%s: meta %+v", tl.Style, e.Meta)
		}
		// Every style must show the server down right after the crash...
		for i, tk := range e.Ticks {
			if tk.TMS == 3100 && tk.Phases[0] != 'D' {
				t.Errorf("%s: tick %d phases %q, want server down", tl.Style, i, tk.Phases)
			}
		}
		// ...and live traffic in the delivery windows.
		if e.Ticks[10].Delivery.N == 0 {
			t.Errorf("%s: no delivery observations at t=1.1s", tl.Style)
		}
	}
}
