package trace

import "sync"

// Event is one recorded trace event. Instants have Dur == 0 and Open ==
// false; spans in progress at export time have Open == true.
type Event struct {
	TS   int64 // virtual ns since run start
	Dur  int64 // span duration; 0 for instants
	Proc int32
	Name string
	Tag  Tag
	Span bool // span (Begin/Span) vs instant
	Open bool // span never ended (evicted Begin or still running)
}

const defaultCapacity = 1 << 16

// Recorder is the enabled Tracer: a fixed-capacity ring buffer of events.
// Recording never allocates in steady state; when the ring is full the
// oldest events are overwritten (Dropped counts them). Recorder is safe
// for concurrent use: a multi-shard run records into one recorder from its
// per-shard goroutines.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	mask uint64
	next uint64 // total events ever appended; buf index = seq & mask
}

// NewRecorder returns a recorder holding up to capacity events (rounded up
// to a power of two; <= 0 selects the 65536-event default).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Recorder{buf: make([]Event, c), mask: uint64(c - 1)}
}

// Enabled implements Tracer.
func (r *Recorder) Enabled() bool { return true }

// append stores e and returns its 1-based sequence number.
func (r *Recorder) append(e Event) uint64 {
	r.next++
	r.buf[r.next&r.mask] = e
	return r.next
}

// Instant implements Tracer.
func (r *Recorder) Instant(ts int64, proc int32, name string, tag Tag) {
	r.mu.Lock()
	r.append(Event{TS: ts, Proc: proc, Name: name, Tag: tag})
	r.mu.Unlock()
}

// Begin implements Tracer.
func (r *Recorder) Begin(ts int64, proc int32, name string, tag Tag) SpanRef {
	r.mu.Lock()
	seq := r.append(Event{TS: ts, Proc: proc, Name: name, Tag: tag, Span: true, Open: true})
	r.mu.Unlock()
	return SpanRef(seq)
}

// End implements Tracer.
func (r *Recorder) End(ref SpanRef, ts int64) {
	if ref == 0 {
		return
	}
	r.mu.Lock()
	seq := uint64(ref)
	// The span is still addressable only if the ring has not lapped it.
	if seq <= r.next && r.next-seq < uint64(len(r.buf)) {
		e := &r.buf[seq&r.mask]
		if e.Span && e.Open {
			e.Dur = ts - e.TS
			e.Open = false
		}
	}
	r.mu.Unlock()
}

// Span implements Tracer.
func (r *Recorder) Span(ts, dur int64, proc int32, name string, tag Tag) {
	r.mu.Lock()
	r.append(Event{TS: ts, Dur: dur, Proc: proc, Name: name, Tag: tag, Span: true})
	r.mu.Unlock()
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Dropped returns how many events were overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return 0
	}
	return r.next - uint64(len(r.buf))
}

// Events returns the retained events in recording order. The slice is a
// copy; spans still open keep Open == true and Dur == 0.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	count := uint64(len(r.buf))
	if n < count {
		count = n
	}
	out := make([]Event, 0, count)
	for seq := n - count + 1; seq <= n; seq++ {
		out = append(out, r.buf[seq&r.mask])
	}
	return out
}
