// Package trace is the causal event-tracing subsystem: a zero-dependency
// (stdlib-only), allocation-conscious recorder of instant events and
// duration spans stamped with virtual time and tagged with the process,
// wire kind, and recovery incarnation that produced them.
//
// The paper's argument rests on *where time goes* during recovery — blocked
// time on live processes, stable-storage latency, and control-message
// rounds — so the simulator, the recovery manager, and the storage path
// emit events here. Exporters turn one run into a browsable Perfetto /
// chrome://tracing timeline (one track per process) or a per-phase text
// summary; the Histogram type replaces sum-only accounting with
// log-bucketed latency distributions (p50/p95/p99/max).
//
// The Tracer interface has two implementations: *Recorder (enabled,
// ring-buffered, safe for concurrent use) and Nop (disabled, a true no-op
// whose cost is verified by BenchmarkTracerDisabled). Runtimes hold a
// Tracer and call it unconditionally; the disabled path must therefore be
// free of allocation and branching beyond the interface dispatch.
package trace

// Phase and event names used across the stack. Exporters and tests match
// on these strings; using the constants keeps the enabled recording path
// allocation-free (string headers only, no formatting).
const (
	// Kernel / runtime lifecycle.
	EvCrash   = "crash"   // instant: failure injected
	EvDown    = "down"    // span: crash → process image restarted
	EvRestart = "restart" // instant: watchdog restarted the process

	// Frame traffic (tagged with the wire kind).
	EvSend = "send" // instant: frame handed to the network
	EvRecv = "recv" // instant: frame delivered to a live process

	// Stable storage (span duration is the modeled access latency).
	EvStorageRead  = "storage-read"
	EvStorageWrite = "storage-write"

	// Recovery phases (paper §3.4), one span per phase per incarnation.
	EvRestore     = "restore"      // span: checkpoint read from stable storage
	EvAnnounce    = "announce"     // instant: recovery ordinal broadcast
	EvWaiting     = "waiting"      // span: announced → recovery data in hand
	EvGather      = "gather"       // span: one leader gather round (steps 4–5)
	EvGatherAbort = "gather-abort" // instant: gather restarted ("goto 4")
	EvReplay      = "replay"       // span: re-consuming logged deliveries
	EvBlocked     = "blocked"      // span: live process deferring deliveries
	EvCheckpoint  = "checkpoint"   // span: checkpoint capture → durable

	// Output commit (DESIGN §10): one span per externally-visible output,
	// request → commit; Arg carries the per-process output sequence number.
	EvOutputCommit = "output-commit"
)

// Tag carries optional event annotations. The zero Tag is valid; fields
// are only exported when non-zero.
type Tag struct {
	// Kind is the wire kind of the frame that produced the event (0 none).
	Kind uint8
	// Inc is the recovery incarnation the event belongs to (0 none).
	Inc uint32
	// Arg is free-form: frame bytes for send/recv, the round number for
	// gather spans, determinant counts, ...
	Arg int64
}

// SpanRef identifies an open span returned by Begin; 0 is "no span" and is
// safe to End (a no-op).
type SpanRef uint64

// Tracer is the recording interface the runtimes and the protocol layers
// call. Timestamps are virtual nanoseconds as reported by the runtime;
// proc is the process identifier (int32(ids.ProcID) — the package stays
// free of internal imports so every layer can depend on it).
type Tracer interface {
	// Enabled reports whether events are recorded; call sites may use it
	// to skip expensive argument preparation.
	Enabled() bool
	// Instant records a point event.
	Instant(ts int64, proc int32, name string, tag Tag)
	// Begin opens a duration span; close it with End.
	Begin(ts int64, proc int32, name string, tag Tag) SpanRef
	// End closes a span opened by Begin. Ending SpanRef(0), an evicted, or
	// an already-ended span is a no-op.
	End(ref SpanRef, ts int64)
	// Span records a complete span whose duration is already known (e.g. a
	// modeled storage access).
	Span(ts, dur int64, proc int32, name string, tag Tag)
}

// Nop is the disabled tracer: every method is an empty function so the
// compiler can reduce call sites to the interface dispatch alone.
type Nop struct{}

// Enabled implements Tracer.
func (Nop) Enabled() bool { return false }

// Instant implements Tracer.
func (Nop) Instant(int64, int32, string, Tag) {}

// Begin implements Tracer.
func (Nop) Begin(int64, int32, string, Tag) SpanRef { return 0 }

// End implements Tracer.
func (Nop) End(SpanRef, int64) {}

// Span implements Tracer.
func (Nop) Span(int64, int64, int32, string, Tag) {}

// OrNop returns t, or Nop if t is nil; runtimes use it so a nil Tracer in
// a config means "disabled" without nil checks on the hot path.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop{}
	}
	return t
}
