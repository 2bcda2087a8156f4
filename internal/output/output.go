package output

import (
	"fmt"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/trace"
)

// Record is the ledger's view of one output. Seq is 1-based and dense
// per process: after a rollback a process re-executes and re-requests
// the same sequence numbers, which lets the ledger identify "the same
// output, requested again" without the protocols exchanging identity.
type Record struct {
	Proc        ids.ProcID
	Seq         uint64
	RequestedAt int64 // virtual ns of the first request (survives rollback)
	CommittedAt int64 // virtual ns of commit; 0 while open
	Size        int   // payload bytes at the most recent request
	Hash        uint64
}

// Committed reports whether the output has been released.
func (r Record) Committed() bool { return r.CommittedAt != 0 }

// Latency returns the request→commit delta, or 0 while open.
func (r Record) Latency() time.Duration {
	if r.CommittedAt == 0 {
		return 0
	}
	return time.Duration(r.CommittedAt - r.RequestedAt)
}

// Sink is the narrow interface the protocols hold (fbl/coord/optimistic
// Params carry one; nil disables output tracking entirely).
type Sink interface {
	// Requested records that proc asked to release its seq-th output now.
	// It returns false when that output already committed — the request is
	// a rollback re-execution of released output and the protocol should
	// not track it again. Re-requesting an open output keeps the original
	// RequestedAt, so crash-straddling outputs measure the full
	// first-request→post-recovery-commit latency.
	Requested(proc ids.ProcID, seq uint64, now int64, payload []byte) bool
	// Committed marks proc's seq-th output as released. Idempotent.
	Committed(proc ids.ProcID, seq uint64, now int64)
	// CommitUpTo commits every open output of proc with Seq <= seq, e.g.
	// when a restored checkpoint or snapshot is known to cover them.
	CommitUpTo(proc ids.ProcID, seq uint64, now int64)
}

// Ledger implements Sink and the readout side. The zero value is not
// usable; construct with NewLedger. Everything a Sink call writes belongs to
// its proc, so processes on different simulator shards may call concurrently;
// the readouts are for between runs (or a sampler tick, shards parked).
type Ledger struct {
	recs       [][]Record // indexed [proc][seq-1]
	open       []int      // per proc: requested, not yet committed
	tr         trace.Tracer
	metrics    func(ids.ProcID) *metrics.Proc
	onConflict func(proc ids.ProcID, seq uint64, oldHash, newHash uint64)
}

var _ Sink = (*Ledger)(nil)

// NewLedger returns a ledger for a run with n application processes.
func NewLedger(n int) *Ledger {
	return &Ledger{recs: make([][]Record, n), open: make([]int, n), tr: trace.Nop{}}
}

// SetTracer routes one EvOutputCommit span per committed output to t.
func (l *Ledger) SetTracer(t trace.Tracer) { l.tr = trace.OrNop(t) }

// SetMetrics wires the per-process histogram sink; f is typically
// (*sim.Sharded).Metrics. A nil f disables histogram recording.
func (l *Ledger) SetMetrics(f func(ids.ProcID) *metrics.Proc) { l.metrics = f }

// SetOnConflict installs a probe that fires when a rollback re-execution
// re-requests an already-committed output with *different* content — the
// externally-visible inconsistency every output-commit rule exists to
// prevent (the original bytes already left the system). The explorer checks
// this invariant on every branch; a same-content re-request (deterministic
// re-execution of released output) does not fire.
func (l *Ledger) SetOnConflict(fn func(proc ids.ProcID, seq uint64, oldHash, newHash uint64)) {
	l.onConflict = fn
}

func (l *Ledger) procRecs(proc ids.ProcID) []Record {
	if int(proc) >= len(l.recs) {
		panic(fmt.Sprintf("output: proc %d outside ledger of %d", proc, len(l.recs)))
	}
	return l.recs[proc]
}

// Requested implements Sink.
//
//rollvet:hotpath
func (l *Ledger) Requested(proc ids.ProcID, seq uint64, now int64, payload []byte) bool {
	rs := l.procRecs(proc)
	if seq == 0 || seq > uint64(len(rs))+1 {
		panic(fmt.Sprintf("output: proc %d requested seq %d with %d recorded", proc, seq, len(rs)))
	}
	if seq == uint64(len(rs))+1 {
		//rollvet:allow hotalloc -- per-process record growth is amortized append-only history
		l.recs[proc] = append(rs, Record{
			Proc: proc, Seq: seq, RequestedAt: now,
			Size: len(payload), Hash: hash(payload),
		})
		l.open[proc]++
		return true
	}
	r := &rs[seq-1]
	if r.Committed() {
		if l.onConflict != nil && r.Hash != hash(payload) {
			l.onConflict(proc, seq, r.Hash, hash(payload))
		}
		return false // rollback re-execution of already-released output
	}
	// Re-request of an open output: a rollback may re-execute it with
	// different content (the original was never released, so that is
	// legal); track what will actually leave, keep the first timestamp.
	r.Size = len(payload)
	r.Hash = hash(payload)
	return true
}

// Committed implements Sink.
//
//rollvet:hotpath
func (l *Ledger) Committed(proc ids.ProcID, seq uint64, now int64) {
	rs := l.procRecs(proc)
	if seq == 0 || seq > uint64(len(rs)) {
		panic(fmt.Sprintf("output: proc %d committed unknown seq %d", proc, seq))
	}
	r := &rs[seq-1]
	if r.Committed() {
		return
	}
	r.CommittedAt = now
	l.open[proc]--
	l.tr.Span(r.RequestedAt, now-r.RequestedAt, int32(proc), trace.EvOutputCommit, trace.Tag{Arg: int64(seq)})
	if l.metrics != nil {
		l.metrics(proc).OutputCommit(time.Duration(now - r.RequestedAt))
	}
}

// CommitUpTo implements Sink.
//
//rollvet:hotpath
func (l *Ledger) CommitUpTo(proc ids.ProcID, seq uint64, now int64) {
	rs := l.procRecs(proc)
	if seq > uint64(len(rs)) {
		seq = uint64(len(rs))
	}
	for s := uint64(1); s <= seq; s++ {
		if !rs[s-1].Committed() {
			l.Committed(proc, s, now)
		}
	}
}

// Total returns the number of distinct outputs requested.
func (l *Ledger) Total() int {
	n := 0
	for _, rs := range l.recs {
		n += len(rs)
	}
	return n
}

// Open returns the number of outputs requested but not yet committed.
func (l *Ledger) Open() int {
	n := 0
	for _, o := range l.open {
		n += o
	}
	return n
}

// OpenOf returns proc's requested-but-uncommitted output count: the
// per-process output-commit backlog the timeline sampler reads.
func (l *Ledger) OpenOf(proc ids.ProcID) int { return l.open[proc] }

// OldestOpenOf returns the RequestedAt instant of proc's oldest still-open
// output, or 0 when none are open. The timeline sampler turns it into the
// backlog-age series: commit rules release outputs roughly in request
// order, so this age sits near the steady-state commit latency while the
// rule can fire and climbs linearly from the moment a failure freezes it.
//
//rollvet:hotpath
func (l *Ledger) OldestOpenOf(proc ids.ProcID) int64 {
	for _, r := range l.procRecs(proc) {
		if !r.Committed() {
			return r.RequestedAt
		}
	}
	return 0
}

// Records returns a copy of every record, proc-ascending then
// seq-ascending — a deterministic order for tables and tests.
func (l *Ledger) Records() []Record {
	out := make([]Record, 0, l.Total())
	for _, rs := range l.recs {
		out = append(out, rs...)
	}
	return out
}

// Deltas returns the request→commit latencies of all committed outputs
// in the same deterministic order as Records.
func (l *Ledger) Deltas() []time.Duration {
	out := make([]time.Duration, 0, l.Total()-l.Open())
	for _, rs := range l.recs {
		for _, r := range rs {
			if r.Committed() {
				out = append(out, r.Latency())
			}
		}
	}
	return out
}

// Straddling returns the records requested strictly before at (a crash
// instant) that had not committed by then — the outputs whose release
// the failure delays until recovery.
func (l *Ledger) Straddling(at int64) []Record {
	var out []Record
	for _, rs := range l.recs {
		for _, r := range rs {
			if r.RequestedAt < at && (r.CommittedAt == 0 || r.CommittedAt >= at) {
				out = append(out, r)
			}
		}
	}
	return out
}

// hash is FNV-1a over the payload; it fingerprints content without
// retaining it.
func hash(p []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range p {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}
