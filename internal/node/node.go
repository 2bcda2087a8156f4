// Package node defines the runtime abstraction the protocol stack is
// written against: an event-driven Process driven by an Env that provides
// virtual time, message transmission, timers, stable storage, and metrics.
//
// One runtime implements Env: the deterministic discrete-event simulator
// (internal/sim).
package node

import (
	"math/rand"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/netmodel"
	"rollrec/internal/storage"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
)

// Env is the world as seen by one process. All methods must be called from
// the process's own event handlers (the runtimes serialize per-process
// execution); callbacks registered here are likewise invoked serially.
type Env interface {
	// ID returns this process's identifier.
	ID() ids.ProcID
	// N returns the number of application processes in the cluster.
	N() int
	// Now returns the current virtual time in nanoseconds since start.
	Now() int64
	// Send transmits the envelope to its destination. The envelope is
	// serialized at call time; the caller may reuse it afterwards. Sending
	// to a down process silently drops the frame, as a real network would.
	Send(to ids.ProcID, e *wire.Envelope)
	// Multicast is Send to each of dests in order, for an envelope that is
	// the same for all of them: it is serialized once and every destination
	// is charged, counted, traced and scheduled as its own Send would be.
	Multicast(dests []ids.ProcID, e *wire.Envelope)
	// MulticastFrame is Multicast of an envelope the caller already encoded
	// (wire.Encode, From set to its own id) — what Multicast does once it has
	// a frame. The runtime and every receiver share frame from then on: the
	// caller may send it again, and nobody writes to it.
	MulticastFrame(dests []ids.ProcID, kind wire.Kind, frame []byte)
	// After schedules fn to run on this process after d of virtual time.
	// The timer dies with the process instance: a crash cancels it.
	After(d time.Duration, fn func()) Timer
	// Busy charges d of CPU time to this process: subsequent message
	// deliveries and timers are deferred until the process is free again.
	Busy(d time.Duration)
	// ReadStable asynchronously reads a key from this process's stable
	// store; cb runs after the modeled latency of the image's logical size
	// with a copy of the image (zero if absent) that the callback owns: the
	// store keeps its own. The callback dies with the process instance.
	ReadStable(key string, cb func(img storage.Image, ok bool))
	// WriteStable asynchronously writes to stable storage; the image becomes
	// durable (and cb runs) only after the modeled latency of its logical
	// size — a crash before completion loses the write, padding included.
	// WriteStable takes ownership of img.Data: the runtime hands the slice
	// itself to the store, so the caller builds a fresh buffer per write and
	// never touches it again.
	WriteStable(key string, img storage.Image, cb func())
	// Rand returns this process's deterministic random stream.
	Rand() *rand.Rand
	// Logf emits a trace line if tracing is enabled.
	Logf(format string, args ...any)
	// Metrics returns this process's statistics accumulator.
	Metrics() *metrics.Proc
	// Tracer returns the event tracer; never nil (trace.Nop when tracing
	// is off). Protocol layers use it to mark recovery-phase spans.
	Tracer() trace.Tracer
}

// Timer is the cancelable handle returned by Env.After: a value naming the
// timer to the runtime that armed it, so arming allocates nothing. The zero
// Timer is inert.
type Timer struct {
	c    Canceller
	slot int32
	gen  uint64
}

// Canceller is the runtime's side of a Timer: it cancels the timer it issued
// under (slot, gen) and ignores a pair that has fired, was cancelled, or whose
// slot has since been handed to a later timer.
type Canceller interface {
	CancelTimer(slot int32, gen uint64)
}

// NewTimer returns the handle of the timer c knows as (slot, gen).
func NewTimer(c Canceller, slot int32, gen uint64) Timer {
	return Timer{c: c, slot: slot, gen: gen}
}

// Stop cancels the timer if it has not fired. Safe to call repeatedly, after
// firing, and on the zero Timer.
func (t Timer) Stop() {
	if t.c != nil {
		t.c.CancelTimer(t.slot, t.gen)
	}
}

// Process is an event-driven protocol instance. A crash discards the
// instance; recovery constructs a fresh one via the Factory and boots it
// with restart = true.
type Process interface {
	// Boot starts the instance. restart reports whether this is a
	// reincarnation after a crash (stable storage persists across boots).
	Boot(env Env, restart bool)
	// Deliver hands the instance a decoded frame from the network. The
	// envelope and its Dets belong to the runtime, which may decode the next
	// frame into both as soon as Deliver returns: work on a copy of the
	// struct, merge the Dets before returning, and store e.Keep() for a
	// frame that must outlive the call (the other slices are allocated per
	// frame and never reused).
	Deliver(e *wire.Envelope)
}

// Factory builds a fresh (volatile) process instance for one node.
type Factory func() Process

// Hardware bundles the cost models the runtimes charge for computation,
// communication, and stable storage, plus the failure-handling timing.
type Hardware struct {
	// Net is the link cost model.
	Net netmodel.Params
	// Disk is the stable-storage cost model.
	Disk storage.Params
	// CPUMsgCost is the fixed processing cost charged for sending or
	// delivering one message (protocol-stack traversal).
	CPUMsgCost time.Duration
	// CPUByteCost is the per-byte processing cost (copying, marshaling).
	CPUByteCost time.Duration
	// RecvMsgCost / RecvByteCost override the receive-path processing cost.
	// When both are zero (the default, and both built-in profiles) the
	// receive path charges the same as the send path — the symmetric-stack
	// assumption the paper's cost model makes — so RecvCost == SendCost.
	// Set either to model asymmetric stacks (e.g. checksum offload on
	// receive).
	RecvMsgCost  time.Duration
	RecvByteCost time.Duration
	// WatchdogDetect is how long after a crash the node's watchdog notices
	// and initiates a restart ("several seconds of timeouts and retrials",
	// paper §2.2).
	WatchdogDetect time.Duration
	// RestartDelay is the process-image restart cost before the checkpoint
	// read begins.
	RestartDelay time.Duration
	// HeartbeatEvery is the peer heartbeat period.
	HeartbeatEvery time.Duration
	// SuspectAfter is how long without traffic from a peer before the
	// failure detector suspects it.
	SuspectAfter time.Duration
}

// SendCost returns the CPU time charged to a process for sending one
// frame of the given size.
func (h Hardware) SendCost(size int) time.Duration {
	return h.CPUMsgCost + time.Duration(size)*h.CPUByteCost
}

// RecvCost returns the CPU time charged to a process for delivering one
// frame of the given size. It defaults to SendCost (symmetric stack)
// unless RecvMsgCost or RecvByteCost is set.
func (h Hardware) RecvCost(size int) time.Duration {
	if h.RecvMsgCost == 0 && h.RecvByteCost == 0 {
		return h.SendCost(size)
	}
	return h.RecvMsgCost + time.Duration(size)*h.RecvByteCost
}

// Profile1995 models the paper's testbed: DEC 5000/200 workstations
// (25 MHz MIPS, 32 MB) on a 155 Mb/s ATM LAN, era disks, and the multi-
// second timeout-based failure detection the paper describes. The absolute
// constants are calibrated so experiments E1/E2 land in the ranges §5
// reports; the experiment *shapes* do not depend on them.
func Profile1995() Hardware {
	return Hardware{
		Net: netmodel.Params{
			Latency:   400 * time.Microsecond,
			Bandwidth: 155e6 / 8 * 0.8, // ~80% of line rate after framing
		},
		Disk:           storage.Disk1995(),
		CPUMsgCost:     time.Millisecond,      // 1995 protocol stacks: ~25k instructions/msg
		CPUByteCost:    150 * time.Nanosecond, // ~4 instructions/byte on a 25 MHz MIPS
		WatchdogDetect: 3 * time.Second,
		RestartDelay:   500 * time.Millisecond,
		HeartbeatEvery: 250 * time.Millisecond,
		SuspectAfter:   3 * time.Second,
	}
}

// ProfileModern models a contemporary cluster (fast network, fast CPU,
// SSD-class storage) for the technology-trend sweeps.
func ProfileModern() Hardware {
	return Hardware{
		Net: netmodel.Params{
			Latency:   20 * time.Microsecond,
			Bandwidth: 10e9 / 8,
		},
		Disk: storage.Params{
			Latency:        100 * time.Microsecond,
			ReadBandwidth:  2e9,
			WriteBandwidth: 1e9,
		},
		CPUMsgCost:     2 * time.Microsecond,
		CPUByteCost:    0,
		WatchdogDetect: 500 * time.Millisecond,
		RestartDelay:   50 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		SuspectAfter:   500 * time.Millisecond,
	}
}
