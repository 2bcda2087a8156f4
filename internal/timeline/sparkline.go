package timeline

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"rollrec/internal/node"
)

// sparkLevels are the eight block glyphs a sparkline cell can take; values
// scale linearly into them, with zero rendered as a space so idle stretches
// read as gaps.
var sparkLevels = []rune{'▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}

// markerGlyphs is the one-character code each marker kind renders as in the
// marker lane.
var markerGlyphs = map[string]byte{
	MarkCrash:       'X',
	MarkRestart:     'r',
	MarkRestored:    's',
	MarkGathered:    'g',
	MarkRecoveryEnd: 'E',
}

// Spark renders values as a sparkline of at most width cells. When there
// are more values than cells, each cell shows the maximum of its bucket
// (max-pooling) — a spike is never averaged away. Scaling is linear from 0
// to the series maximum.
func Spark(values []float64, width int) string {
	if len(values) == 0 || width < 1 {
		return ""
	}
	pooled := pool(values, width)
	peak := max(0, slices.Max(pooled))
	var sb strings.Builder
	for _, v := range pooled {
		if v <= 0 || peak <= 0 {
			sb.WriteByte(' ')
			continue
		}
		lvl := int(v / peak * float64(len(sparkLevels)))
		if lvl >= len(sparkLevels) {
			lvl = len(sparkLevels) - 1
		}
		sb.WriteRune(sparkLevels[lvl])
	}
	return sb.String()
}

// pool max-pools values into exactly min(width, len(values)) cells, each
// covering an equal share of the index range.
func pool(values []float64, width int) []float64 {
	if len(values) <= width {
		return values
	}
	out := make([]float64, width)
	for cell := 0; cell < width; cell++ {
		lo := cell * len(values) / width
		hi := (cell + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		out[cell] = slices.Max(values[lo:hi])
	}
	return out
}

// cellOf maps a timestamp to its sparkline cell under the same bucketing
// pool uses, so markers line up with the series above them.
func cellOf(tms float64, ticks []Tick, width int) int {
	if len(ticks) == 0 {
		return 0
	}
	// Find the tick index covering tms (last tick with TMS <= tms; events
	// before the first tick land in cell 0).
	idx := 0
	for i, t := range ticks {
		if t.TMS <= tms {
			idx = i
		}
	}
	n := len(ticks)
	if n <= width {
		return idx
	}
	return idx * width / n
}

// markerLane renders the marker glyphs aligned under the sparkline cells.
// Colliding markers keep the earliest (already first in canonical order).
func markerLane(e *Export, width int) string {
	cells := width
	if len(e.Ticks) < cells {
		cells = len(e.Ticks)
	}
	if cells < 1 {
		return ""
	}
	lane := make([]byte, cells)
	for i := range lane {
		lane[i] = ' '
	}
	for _, m := range e.Markers {
		g, ok := markerGlyphs[m.Kind]
		if !ok {
			continue
		}
		c := cellOf(m.TMS, e.Ticks, width)
		if c >= 0 && c < cells && lane[c] == ' ' {
			lane[c] = g
		}
	}
	return string(lane)
}

// Render prints the timeline explorer view: one aligned sparkline lane per
// series, per-process phase lanes, and a marker lane keyed by glyph. Width
// bounds the sparkline cell count (the series is max-pooled into it).
func Render(w io.Writer, e *Export, width int) {
	if width < 8 {
		width = 8
	}
	ticks := e.Ticks
	if len(ticks) == 0 {
		fmt.Fprintf(w, "timeline %q: no samples\n", e.Meta.Label)
		return
	}
	span := ticks[len(ticks)-1].TMS
	fmt.Fprintf(w, "timeline %q: n=%d interval=%gms span=%gms ticks=%d markers=%d\n",
		e.Meta.Label, e.Meta.N, e.Meta.IntervalMS, span, len(ticks), len(e.Markers))

	type lane struct {
		name string
		of   func(Tick) float64
	}
	lanes := []lane{
		{"queue", func(t Tick) float64 { return float64(t.Queue) }},
		{"inflight", func(t Tick) float64 { return float64(t.InFlight) }},
		{"journal", func(t Tick) float64 { return float64(t.cluster().journal) }},
		{"lag", func(t Tick) float64 { return float64(t.cluster().lag) }},
		{"stable_B", func(t Tick) float64 { return float64(t.cluster().stable) }},
		{"backlog", func(t Tick) float64 { return float64(t.cluster().backlog) }},
		{"blk_age", func(t Tick) float64 { return t.cluster().oldest }},
		{"dlv_p99", func(t Tick) float64 { return t.Delivery.P99MS }},
		{"out_p99", func(t Tick) float64 { return t.Output.P99MS }},
	}
	// Tiered exports (schema v2, DESIGN §12) get one in-flight and one
	// windowed output-p99 lane per tier, in tier order (t0 is the client
	// tier under the traffic engine's numbering).
	for ti := range e.Meta.Tiers {
		lanes = append(lanes,
			lane{fmt.Sprintf("inflt_t%d", ti), func(t Tick) float64 { return float64(t.InflightReq[ti]) }},
			lane{fmt.Sprintf("outp99_t%d", ti), func(t Tick) float64 { return t.TierOutput[ti].P99MS }})
	}
	for _, l := range lanes {
		values := perTick(ticks, l.of)
		fmt.Fprintf(w, "%-9s|%s| max=%g\n", l.name, padLane(Spark(values, width), width, len(ticks)),
			max(0, slices.Max(values)))
	}

	// Phase lanes: one row per process, one cell per pooled bucket showing
	// the "worst" phase in the bucket (Down > Replaying > ... > Live).
	for p := 0; p < e.Meta.N; p++ {
		fmt.Fprintf(w, "p%-8d|%s|\n", p, padLane(phaseLane(ticks, p, width), width, len(ticks)))
	}

	if lane := markerLane(e, width); strings.TrimSpace(lane) != "" {
		fmt.Fprintf(w, "%-9s|%s| X=crash r=restart s=restored g=gathered E=recovery-end\n",
			"markers", padLane(lane, width, len(ticks)))
	}
}

// perTick maps each tick through f.
func perTick(ticks []Tick, f func(Tick) float64) []float64 {
	out := make([]float64, len(ticks))
	for i, t := range ticks {
		out[i] = f(t)
	}
	return out
}

// phaseLane renders process p's phase runes, max-pooled by phase severity.
func phaseLane(ticks []Tick, p int, width int) string {
	vals := make([]float64, len(ticks))
	for i, t := range ticks {
		if p < len(t.Phases) {
			vals[i] = float64(phaseOf(t.Phases[p]))
		}
	}
	pooled := pool(vals, width)
	out := make([]byte, len(pooled))
	for i, v := range pooled {
		out[i] = phaseRunes[int(v)]
	}
	return string(out)
}

// phaseOf inverts phaseRunes; unknown runes read as live.
func phaseOf(r byte) node.Phase {
	for i, pr := range phaseRunes {
		if pr == r {
			return node.Phase(i)
		}
	}
	return node.PhaseLive
}

// padLane right-pads a lane whose series is shorter than width, so the
// closing | of every lane lines up.
func padLane(lane string, width, n int) string {
	cells := width
	if n < cells {
		cells = n
	}
	if got := len([]rune(lane)); got < cells {
		lane += strings.Repeat(" ", cells-got)
	}
	return lane + strings.Repeat(" ", width-cells)
}
