package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"rollrec/internal/wire"
)

// PhaseStat aggregates every span (or instant) sharing one name.
type PhaseStat struct {
	Name  string
	Spans Histogram // span durations (empty for pure instants)
	Count int64     // total events, spans + instants
}

// Summarize aggregates events by name. Open spans are excluded from the
// duration histogram (their length is unknown) but counted.
func Summarize(events []Event) []PhaseStat {
	byName := map[string]*PhaseStat{}
	var order []string
	for _, e := range events {
		st := byName[e.Name]
		if st == nil {
			st = &PhaseStat{Name: e.Name}
			byName[e.Name] = st
			order = append(order, e.Name)
		}
		st.Count++
		if e.Span && !e.Open {
			st.Spans.Record(time.Duration(e.Dur))
		}
	}
	sort.Strings(order)
	out := make([]PhaseStat, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// WriteSummary renders the per-phase table: for each event name, the
// occurrence count and — for spans — the latency distribution. This is the
// plain-text counterpart of the Perfetto timeline.
func WriteSummary(w io.Writer, events []Event) error {
	stats := Summarize(events)
	if _, err := fmt.Fprintf(w, "%-16s %8s %10s %10s %10s %10s %10s\n",
		"phase", "count", "total", "p50", "p95", "p99", "max"); err != nil {
		return err
	}
	for _, st := range stats {
		if st.Spans.Count() == 0 {
			if _, err := fmt.Fprintf(w, "%-16s %8d %10s %10s %10s %10s %10s\n",
				st.Name, st.Count, "-", "-", "-", "-", "-"); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%-16s %8d %10s %10s %10s %10s %10s\n",
			st.Name, st.Count,
			fmtDur(st.Spans.Total()), fmtDur(st.Spans.Quantile(0.50)),
			fmtDur(st.Spans.Quantile(0.95)), fmtDur(st.Spans.Quantile(0.99)),
			fmtDur(st.Spans.Max())); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders events as the plain-text event log: one line per event,
// ordered by virtual time, then process, then recording order. Each process
// records its own events in its own order on any shard count, so the log is
// the same for every partitioning of a run. A line is the virtual time, the
// process, the event name, the span duration ("open" for a span that never
// ended) and the non-zero tag fields, the kind named as a wire.Kind.
func WriteText(w io.Writer, events []Event) error {
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Proc, b.Proc))
	})
	bw := bufio.NewWriter(w)
	for _, e := range sorted {
		fmt.Fprintf(bw, "[%12s] %s %s", time.Duration(e.TS), procLabel(e.Proc), e.Name)
		switch {
		case e.Open:
			bw.WriteString(" open")
		case e.Span:
			fmt.Fprintf(bw, " dur=%s", time.Duration(e.Dur))
		}
		if k := e.Tag.Kind; k != 0 {
			fmt.Fprintf(bw, " kind=%s", wire.Kind(k))
		}
		if e.Tag.Inc != 0 {
			fmt.Fprintf(bw, " inc=%d", e.Tag.Inc)
		}
		if e.Tag.Arg != 0 {
			fmt.Fprintf(bw, " arg=%d", e.Tag.Arg)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// fmtDur renders durations compactly for the summary table.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
