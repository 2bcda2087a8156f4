package sim

import (
	"fmt"

	"rollrec/internal/ids"
)

// Step-boundary instrumentation for the failure-schedule explorer
// (internal/explore). A "step" is the index of an event in the kernel's
// deterministic dispatch order: the boundary with index i sits immediately
// before the i-th dispatched event, so two runs of the same configuration
// agree on what "crash at step i" means down to the exact interleaving.
//
// Like the sampler (SetSampler), the probe is observation-only: it consumes
// no sequence numbers, draws no randomness, and enqueues nothing, so a run
// with a probe attached is bit-identical — same event sequence, same golden
// trace hash — to a run without one. Crash injection (CrashAtStep) is the
// one sanctioned mutation at a boundary, and it is what makes the explorer
// able to land crashes *between* any two events — including inside an
// in-progress recovery, where CrashAt's scheduled event (which sorts after
// all same-time events by sequence number) cannot reach.

// StepInfo describes the event about to be dispatched at a step boundary.
type StepInfo struct {
	// Step is the dispatch index of the event (0-based).
	Step int64
	// At is the event's virtual time in nanoseconds.
	At int64
	// Kind is the kernel event kind (StepFunc..StepWake).
	Kind uint8
	// Proc is the process the event belongs to, or ids.Nobody for harness
	// callbacks and other events with no owning node.
	Proc ids.ProcID
}

// StepFunc observes one step boundary. It must not schedule events, crash
// nodes, or otherwise mutate kernel state; reading (Now, Up, Steps, node
// metrics) is fine.
type StepFunc func(StepInfo)

// Exported aliases of the internal event kinds, for probe consumers.
const (
	// StepKindFunc runs a harness/internal closure.
	StepKindFunc = evFunc
	// StepKindExec is an epoch-guarded process callback (timer fire,
	// storage completion).
	StepKindExec = evExec
	// StepKindArrive is a frame reaching its destination's network
	// interface.
	StepKindArrive = evArrive
	// StepKindDeliver is never reported (busy-deferred deliveries drain
	// through StepKindWake); the frozen benchmark/ module still names it.
	StepKindDeliver = evRetired
	// StepKindWake drains one item from a node's FIFO deferral queue.
	StepKindWake = evWake
)

// SetStepProbe installs fn to be invoked at every step boundary, immediately
// before the event at that step dispatches. A nil fn detaches the probe.
func (k *Kernel) SetStepProbe(fn StepFunc) { k.stepFn = fn }

// Steps returns the step index of the next boundary: the number of events
// dispatched so far, except that from inside an event handler or tracer
// callback it names the boundary immediately *after* the currently
// dispatching event — which is exactly the index to pass to CrashAtStep to
// crash "right after this event".
func (k *Kernel) Steps() int64 { return k.dispatched }

// CrashAtStep registers a crash of id at the given step boundary: the crash
// takes effect after event step-1 completes and before event step begins.
// Multiple victims registered for the same step crash in registration order.
// Crashing an already-down process at its step is a silent no-op (mirroring
// Crash); compare recoveries against CrashesApplied, not the plan length.
func (k *Kernel) CrashAtStep(step int64, id ids.ProcID) {
	if step < 0 || step < k.dispatched {
		panic(fmt.Sprintf("sim: CrashAtStep(%d): boundary already passed (at step %d)",
			step, k.dispatched))
	}
	if id.IsStorage() {
		panic("sim: the stable-storage pseudo-process never fails (paper §3.3)")
	}
	if k.stepCrash == nil {
		k.stepCrash = make(map[int64][]ids.ProcID)
	}
	k.stepCrash[step] = append(k.stepCrash[step], id)
}

// CrashesApplied returns the number of crash injections that actually took
// effect (the victim had a live process image). Schedules synthesized by the
// explorer may re-crash a process that is still down; those injections are
// no-ops and must not be counted against liveness.
func (k *Kernel) CrashesApplied() int { return k.crashApplied }

// stepBoundary fires the probe and applies step-indexed crashes for the
// boundary before dispatching e. Called with the event already popped off
// the heap and copied out, so an injected crash (which schedules a restart
// and may grow the arena) cannot disturb the dispatch in progress.
func (k *Kernel) stepBoundary(e *event) {
	// Crashes land first, then the probe observes the boundary: a probe at
	// step s sees the state every event from s onward will execute against.
	if victims, ok := k.stepCrash[k.dispatched]; ok {
		delete(k.stepCrash, k.dispatched)
		for _, id := range victims {
			k.Crash(id)
		}
	}
	if k.stepFn != nil {
		proc := ids.Nobody
		if e.ns != nil {
			proc = e.ns.id
		}
		k.stepFn(StepInfo{Step: k.dispatched, At: e.at, Kind: e.kind, Proc: proc})
	}
}
