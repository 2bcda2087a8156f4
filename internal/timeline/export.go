package timeline

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SchemaVersion identifies the export layout. Bump it on any change to the
// tick row schema or to the meaning of a series; Decode refuses exports
// newer than this binary (same discipline as bench snapshots).
//
// v2 added the optional per-tier series for the traffic workload
// (meta.tiers, inflight_req, tier_output). Untiered v2 exports are
// field-for-field identical to v1, and Decode still accepts v1 files.
const SchemaVersion = 2

// Marker kinds: the crash and recovery-phase boundaries annotated on the
// timeline. Renderers and tests match on these strings.
const (
	MarkCrash       = "crash"
	MarkRestart     = "restart"
	MarkRestored    = "restored"
	MarkGathered    = "gathered"
	MarkRecoveryEnd = "recovery-end"
)

// markerRank orders marker kinds at equal (time, proc): lifecycle order.
var markerRank = map[string]int{
	MarkCrash:       0,
	MarkRestart:     1,
	MarkRestored:    2,
	MarkGathered:    3,
	MarkRecoveryEnd: 4,
}

// Meta describes a timeline export.
type Meta struct {
	Schema     int     `json:"schema"`
	Label      string  `json:"label"`
	IntervalMS float64 `json:"interval_ms"`
	N          int     `json:"n"`
	// Tiers is the tier partition of the N processes when the run hosted
	// the multi-tier traffic workload; absent otherwise.
	Tiers []int `json:"tiers,omitempty"`
}

// WindowDist is one tumbling window's latency distribution: the
// observations recorded between the previous tick and this one.
type WindowDist struct {
	N      int64   `json:"n"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
}

// Tick is one sample row. Cluster-wide gauges are scalars; per-process
// gauges are arrays indexed by process id; Phases packs one phase rune per
// process (see phaseRunes).
type Tick struct {
	TMS      float64 `json:"t_ms"`
	Queue    int     `json:"queue"`
	InFlight int     `json:"inflight"`
	Phases   string  `json:"phases"`
	Journal  []int   `json:"journal"`
	Lag      []int   `json:"lag"`
	Stable   []int64 `json:"stable_bytes"`
	Backlog  []int   `json:"backlog"`
	// Oldest is the per-process backlog age: milliseconds since the oldest
	// still-open output was requested (0 when nothing is open). Unlike the
	// open count — which freezes when a crashed process stops requesting —
	// this keeps climbing through an outage and drops only when recovery
	// releases the straddling outputs.
	Oldest []float64 `json:"oldest_open_ms"`
	// Delivery and Output are this window's latency percentiles for frame
	// delivery and output commit respectively.
	Delivery WindowDist `json:"delivery"`
	Output   WindowDist `json:"output_commit"`
	// InflightReq and TierOutput are the per-tier series (indexed like
	// Meta.Tiers): open requests held by each tier at the sample instant,
	// and each tier's windowed output-commit percentiles. Present only on
	// tiered runs.
	InflightReq []int        `json:"inflight_req,omitempty"`
	TierOutput  []WindowDist `json:"tier_output,omitempty"`
}

// clusterTick is a tick's per-process gauges reduced to cluster values, the
// ones the CSV columns and the sparkline lanes show.
type clusterTick struct {
	journal, lag, backlog int
	stable                int64
	oldest                float64
}

// cluster sums the journal, lag, stable and backlog gauges over the
// processes (the arrays are equally long in every export check admits).
// Backlog age is a worst-case gauge, so its cluster value is the maximum, not
// a meaningless sum of ages.
func (t Tick) cluster() (c clusterTick) {
	for i := range t.Journal {
		c.journal += t.Journal[i]
		c.lag += t.Lag[i]
		c.stable += t.Stable[i]
		c.backlog += t.Backlog[i]
		c.oldest = max(c.oldest, t.Oldest[i])
	}
	return c
}

// Marker is one annotated instant on the timeline.
type Marker struct {
	TMS  float64 `json:"t_ms"`
	Proc int     `json:"proc"`
	Kind string  `json:"kind"`
}

// Export is the versioned, machine-readable result of one sampled run.
type Export struct {
	Meta    Meta     `json:"meta"`
	Ticks   []Tick   `json:"ticks"`
	Markers []Marker `json:"markers"`
}

// ms rounds a duration to 1 µs and reports it in milliseconds — the same
// deterministic rounding the bench snapshots use, applied once at
// aggregation time.
func ms(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Microsecond)) / 1000
}

func sortMarkers(ms []Marker) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].TMS != ms[j].TMS {
			return ms[i].TMS < ms[j].TMS
		}
		if ms[i].Proc != ms[j].Proc {
			return ms[i].Proc < ms[j].Proc
		}
		return markerRank[ms[i].Kind] < markerRank[ms[j].Kind]
	})
}

// Encode writes the canonical byte-stable JSON form: two-space indent,
// struct-ordered fields, trailing newline.
func (e *Export) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the export to path in canonical form.
func (e *Export) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Decode reads an export, rejecting schemas newer than this binary and an
// export that contradicts its own meta (see check).
func Decode(r io.Reader) (*Export, error) {
	var e Export
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("timeline: malformed export: %w", err)
	}
	switch {
	case e.Meta.Schema < 1:
		return nil, fmt.Errorf("timeline: export schema %d invalid (earliest is 1)", e.Meta.Schema)
	case e.Meta.Schema > SchemaVersion:
		return nil, fmt.Errorf("timeline: export schema %d is newer than this binary's %d; rebuild or regenerate",
			e.Meta.Schema, SchemaVersion)
	}
	if err := e.check(); err != nil {
		return nil, fmt.Errorf("timeline: export contradicts its meta: %w", err)
	}
	return &e, nil
}

// check holds an export to what a Collector writes: at least one process,
// tiers that partition them, one phase rune and one array entry per process
// and one array entry per tier in every tick, and markers of a known kind on
// a process that exists.
func (e *Export) check() error {
	n, tiers := e.Meta.N, e.Meta.Tiers
	if n < 1 {
		return fmt.Errorf("n = %d", n)
	}
	sum := 0
	for _, size := range tiers {
		if size < 1 {
			return fmt.Errorf("tier sizes %v are not all positive", tiers)
		}
		sum += size
	}
	if len(tiers) > 0 && sum != n {
		return fmt.Errorf("tiers %v sum to %d, not n = %d", tiers, sum, n)
	}
	for i, t := range e.Ticks {
		switch {
		case len(t.Phases) != n || strings.Trim(t.Phases, string(phaseRunes[:])) != "":
			return fmt.Errorf("tick %d: phases %q are not %d of %s", i, t.Phases, n, phaseRunes[:])
		case len(t.Journal) != n || len(t.Lag) != n || len(t.Stable) != n || len(t.Backlog) != n || len(t.Oldest) != n:
			return fmt.Errorf("tick %d: a per-process array is not %d long", i, n)
		case len(t.InflightReq) != len(tiers) || len(t.TierOutput) != len(tiers):
			return fmt.Errorf("tick %d: a per-tier array is not %d long", i, len(tiers))
		}
	}
	for _, m := range e.Markers {
		if _, known := markerRank[m.Kind]; !known || m.Proc < 0 || m.Proc >= n {
			return fmt.Errorf("marker %q on process %d", m.Kind, m.Proc)
		}
	}
	return nil
}

// ReadFile reads an export from path.
func ReadFile(path string) (*Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// csvHeader is the CSV column set: one row per tick, cluster-level values
// (per-process arrays are summed; phases stay packed). CSV is the artifact
// form — spreadsheet-friendly, still byte-deterministic. Tiered exports
// append per-tier columns after these; untiered exports keep exactly this
// set, so pre-v2 CSV artifacts are byte-stable.
var csvHeader = []string{
	"t_ms", "queue", "inflight", "phases",
	"journal", "lag", "stable_bytes", "backlog", "oldest_open_ms",
	"delivery_n", "delivery_p50_ms", "delivery_p99_ms", "delivery_p999_ms",
	"output_n", "output_p50_ms", "output_p99_ms", "output_p999_ms",
}

// EncodeCSV writes the cluster-level CSV form.
func (e *Export) EncodeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := slices.Clone(csvHeader)
	for t := range e.Meta.Tiers {
		header = append(header,
			fmt.Sprintf("inflight_req_t%d", t),
			fmt.Sprintf("output_t%d_n", t),
			fmt.Sprintf("output_t%d_p50_ms", t),
			fmt.Sprintf("output_t%d_p99_ms", t),
			fmt.Sprintf("output_t%d_p999_ms", t),
		)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	fms := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, t := range e.Ticks {
		c := t.cluster()
		rec := []string{
			fms(t.TMS),
			strconv.Itoa(t.Queue),
			strconv.Itoa(t.InFlight),
			t.Phases,
			strconv.Itoa(c.journal),
			strconv.Itoa(c.lag),
			strconv.FormatInt(c.stable, 10),
			strconv.Itoa(c.backlog),
			fms(c.oldest),
			strconv.FormatInt(t.Delivery.N, 10),
			fms(t.Delivery.P50MS), fms(t.Delivery.P99MS), fms(t.Delivery.P999MS),
			strconv.FormatInt(t.Output.N, 10),
			fms(t.Output.P50MS), fms(t.Output.P99MS), fms(t.Output.P999MS),
		}
		for ti, dist := range t.TierOutput {
			rec = append(rec,
				strconv.Itoa(t.InflightReq[ti]),
				strconv.FormatInt(dist.N, 10),
				fms(dist.P50MS), fms(dist.P99MS), fms(dist.P999MS),
			)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the CSV form to path.
func (e *Export) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.EncodeCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ProcBacklog returns process p's backlog series, one value per tick.
func (e *Export) ProcBacklog(p int) []int {
	out := make([]int, len(e.Ticks))
	for i, t := range e.Ticks {
		if p < len(t.Backlog) {
			out[i] = t.Backlog[p]
		}
	}
	return out
}

// ProcOldest returns process p's backlog-age series (milliseconds since its
// oldest open output was requested), one value per tick.
func (e *Export) ProcOldest(p int) []float64 {
	out := make([]float64, len(e.Ticks))
	for i, t := range e.Ticks {
		if p < len(t.Oldest) {
			out[i] = t.Oldest[p]
		}
	}
	return out
}

// MarkerAt returns the first marker of the given kind for proc (-1: any
// proc), and whether one exists.
func (e *Export) MarkerAt(kind string, proc int) (Marker, bool) {
	for _, m := range e.Markers {
		if m.Kind == kind && (proc < 0 || m.Proc == proc) {
			return m, true
		}
	}
	return Marker{}, false
}
