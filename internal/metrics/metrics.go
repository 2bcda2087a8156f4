// Package metrics collects the quantities the paper's evaluation reports:
// per-process blocked time (the intrusion of recovery on live processes),
// message and byte counts split by protocol kind (the traditional
// communication-overhead metric), stable-storage access counts and time, and
// per-recovery phase breakdowns.
//
// All timestamps are virtual nanoseconds as reported by the runtime; the
// package has no dependency on wall-clock time.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rollrec/internal/trace"
	"rollrec/internal/wire"
)

// maxKinds sizes the per-kind counter arrays. It is derived from the wire
// package's kind count so adding a wire kind can never silently overflow
// (or be silently dropped by) the counters.
const maxKinds = wire.KindCount

// Proc accumulates statistics for one process. The zero value is ready to
// use. Proc is not safe for concurrent use; the simulator serializes event
// handling per process.
type Proc struct {
	// Message counters, indexed by wire kind.
	MsgsSent  [maxKinds]int64
	BytesSent [maxKinds]int64
	MsgsRecv  [maxKinds]int64
	BytesRecv [maxKinds]int64
	Dropped   int64 // frames that arrived while the process was down

	// Application-level progress.
	Delivered int64 // application messages delivered to the app
	Duplicate int64 // duplicates suppressed by (sender, ssn)
	Stale     int64 // messages rejected for carrying an old incarnation
	Rejected  int64 // payloads the application refused and frames of no known kind

	// Lost work (the rollback families): rollbacks this process went
	// through and the deliveries they discarded. Zero under FBL, where only
	// the victim re-executes, and only from its own log.
	Rollbacks      int64
	LostDeliveries int64

	// Piggyback overhead (the FBL failure-free cost).
	PiggybackDets  int64 // determinants carried on outgoing app messages
	PiggybackBytes int64 // bytes of those determinants

	// Stable storage.
	StorageReads      int64
	StorageWrites     int64
	StorageReadBytes  int64
	StorageWriteBytes int64

	// Latency distributions (log-bucketed; p50/p95/p99/max). These replace
	// the former sum-only accounting: totals are derived from them.
	StorageHist  trace.Histogram // per-operation stable-storage access time
	BlockedHist  trace.Histogram // per-span live-process blocked time
	DeliveryHist trace.Histogram // per-frame network delivery latency
	OutputHist   trace.Histogram // per-output request→commit latency (DESIGN §10)

	// Intrusion accounting.
	blockedSince int64 // virtual ns; -1 when not blocked

	// Recovery traces, one per incarnation change.
	Recoveries []RecoveryTrace
}

// RecoveryTrace records the phases of one recovery of this process. A zero
// timestamp means the phase was never reached. All values are virtual
// nanoseconds since simulation start; CrashedAt is set by the harness, the
// rest by the protocol.
type RecoveryTrace struct {
	Incarnation uint32
	CrashedAt   int64 // when the crash was injected
	RestartedAt int64 // when the process image came back up
	RestoredAt  int64 // checkpoint read from stable storage completed
	GatheredAt  int64 // recovery data received from the leader
	ReplayedAt  int64 // replay finished; process is live again
	Rounds      int   // gather rounds observed (restarts due to failures)
	WasLeader   bool
}

// Total returns the crash-to-live recovery latency, or 0 if incomplete.
func (r RecoveryTrace) Total() time.Duration {
	if r.ReplayedAt == 0 || r.CrashedAt == 0 {
		return 0
	}
	return time.Duration(r.ReplayedAt - r.CrashedAt)
}

// NewProc returns an empty metrics accumulator.
func NewProc() *Proc {
	return &Proc{blockedSince: -1}
}

// Sent records an outgoing frame of the given kind and size.
func (p *Proc) Sent(kind uint8, bytes int) {
	if int(kind) < maxKinds {
		p.MsgsSent[kind]++
		p.BytesSent[kind] += int64(bytes)
	}
}

// Received records an inbound frame delivered to the process.
func (p *Proc) Received(kind uint8, bytes int) {
	if int(kind) < maxKinds {
		p.MsgsRecv[kind]++
		p.BytesRecv[kind] += int64(bytes)
	}
}

// BlockStart marks the beginning of an interval during which the protocol
// refuses to deliver application messages. Nested calls are idempotent.
func (p *Proc) BlockStart(now int64) {
	if p.blockedSince < 0 {
		p.blockedSince = now
	}
}

// BlockEnd closes a blocking interval opened by BlockStart, recording its
// length in the blocked-time distribution.
func (p *Proc) BlockEnd(now int64) {
	if p.blockedSince >= 0 {
		p.BlockedHist.Record(time.Duration(now - p.blockedSince))
		p.blockedSince = -1
	}
}

// Blocked reports whether a blocking interval is currently open.
func (p *Proc) Blocked() bool { return p.blockedSince >= 0 }

// BlockedTotal returns the accumulated blocked time across closed spans.
func (p *Proc) BlockedTotal() time.Duration { return p.BlockedHist.Total() }

// BlockedSpans returns the number of closed blocking intervals.
func (p *Proc) BlockedSpans() int64 { return p.BlockedHist.Count() }

// StorageOp records a completed stable-storage operation.
func (p *Proc) StorageOp(write bool, bytes int, took time.Duration) {
	if write {
		p.StorageWrites++
		p.StorageWriteBytes += int64(bytes)
	} else {
		p.StorageReads++
		p.StorageReadBytes += int64(bytes)
	}
	p.StorageHist.Record(took)
}

// OutputCommit records the request→commit latency of one externally-
// visible output released by this process.
func (p *Proc) OutputCommit(took time.Duration) {
	p.OutputHist.Record(took)
}

// StorageTime returns the total time spent in storage operations.
func (p *Proc) StorageTime() time.Duration { return p.StorageHist.Total() }

// CurrentRecovery returns the in-progress trace (the last one appended), or
// nil if none has been started.
func (p *Proc) CurrentRecovery() *RecoveryTrace {
	if len(p.Recoveries) == 0 {
		return nil
	}
	return &p.Recoveries[len(p.Recoveries)-1]
}

// TotalSent sums sent messages and bytes over every kind.
func (p *Proc) TotalSent() (msgs, bytes int64) {
	for k := 0; k < maxKinds; k++ {
		msgs += p.MsgsSent[k]
		bytes += p.BytesSent[k]
	}
	return msgs, bytes
}

// Quantile returns the q-quantile (0..1) of the given durations.
func Quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + time.Duration(frac*float64(s[i+1]-s[i]))
}

// ExactQuantiles sorts ds in place and returns, for each per-mille rank q in
// qs, the sample ds[(len(ds)-1)*q/1000]: an observed value, neither
// interpolated (Quantile) nor bucketed (trace.Histogram). Zeros when ds is
// empty.
func ExactQuantiles(ds []time.Duration, qs ...int) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(ds) == 0 {
		return out
	}
	slices.Sort(ds)
	for i, q := range qs {
		out[i] = ds[(len(ds)-1)*q/1000]
	}
	return out
}

// FmtDuration renders a duration with millisecond precision for tables.
func FmtDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
