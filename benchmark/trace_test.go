package main

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"rollrec/internal/sim"
	"rollrec/internal/trace"
)

// The traced run records spans from this package only, around the calls into
// each layer (spans inside the program are a later change). Its span tree is
// two levels deep: the timed run is the root; under it the step probe opens
// one span per kernel step, named by the step's event kind, and the host
// tracer one per recovery phase. Spans are folded into per-name totals in
// memory as they close and reported when the run ends. Nothing the traced run
// measures is used for an end-to-end number.

var stepKinds = [...]string{
	sim.StepKindFunc:    "func",
	sim.StepKindExec:    "exec",
	sim.StepKindArrive:  "arrive",
	sim.StepKindDeliver: "deliver",
	sim.StepKindWake:    "wake",
}

// stepSpans attributes the host time between two step boundaries to the kind
// of the event dispatched at the first. It hangs off Kernel.SetStepProbe, so
// it sees classic-kernel cells only.
type stepSpans struct {
	ns    [len(stepKinds)]time.Duration
	n     [len(stepKinds)]int64
	kind  uint8
	since time.Time
}

func (s *stepSpans) probe(info sim.StepInfo) {
	now := time.Now()
	s.close(now)
	s.kind, s.since = info.Kind, now
}

// close ends the open step span; the run's end closes the last one.
func (s *stepSpans) close(now time.Time) {
	if s.since.IsZero() || int(s.kind) >= len(stepKinds) {
		return
	}
	s.ns[s.kind] += now.Sub(s.since)
	s.n[s.kind]++
	s.since = time.Time{}
}

// recoveryPhases are the spans of a recovery the host tracer times.
var recoveryPhases = []string{trace.EvRestore, trace.EvGather, trace.EvReplay}

// hostTracer stamps host time on the Begin and End of recovery-phase spans.
// The simulator passes virtual timestamps; the host clock read here says how
// long the host spent between the two calls, which for a simulated disk read
// is the cost of everything else the kernel ran meanwhile — the host time the
// run spent *with a recovery in that phase*, not CPU used by the phase.
// Sharded cells call it from shard goroutines, hence the lock.
type hostTracer struct {
	mu    sync.Mutex
	next  trace.SpanRef
	open  map[trace.SpanRef]openSpan
	total map[string]time.Duration
}

type openSpan struct {
	name  string
	since time.Time
}

func newHostTracer() *hostTracer {
	return &hostTracer{open: map[trace.SpanRef]openSpan{}, total: map[string]time.Duration{}}
}

func (t *hostTracer) Enabled() bool                               { return true }
func (t *hostTracer) Instant(int64, int32, string, trace.Tag)     {}
func (t *hostTracer) Span(int64, int64, int32, string, trace.Tag) {}

func (t *hostTracer) Begin(_ int64, _ int32, name string, _ trace.Tag) trace.SpanRef {
	if !slices.Contains(recoveryPhases, name) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = openSpan{name: name, since: time.Now()}
	return t.next
}

func (t *hostTracer) End(ref trace.SpanRef, _ int64) {
	if ref == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp, ok := t.open[ref]; ok {
		t.total[sp.name] += time.Since(sp.since)
		delete(t.open, ref)
	}
}

// cpuProfile collects CPU samples over the timed part of profiled cells.
type cpuProfile struct {
	buf     bytes.Buffer
	samples []profSample
	err     error
}

func (p *cpuProfile) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = err
	}
}

func (p *cpuProfile) stop() {
	pprof.StopCPUProfile()
	s, err := parseProfile(p.buf.Bytes())
	if err != nil {
		p.err = err
	}
	p.samples = append(p.samples, s...)
}
