// Package workload defines the application model the protocol stack hosts
// and three deterministic workloads used by the experiments.
//
// The rollback-recovery protocols assume piecewise-deterministic execution:
// the only nondeterministic events are message receipts. Applications here
// are therefore pure message-driven state machines — all state, including
// any pseudo-randomness, lives inside the checkpointable App so that
// replaying the same delivery sequence regenerates the identical sends.
package workload

import (
	"fmt"

	"rollrec/internal/ids"
	"rollrec/internal/storage"
)

// Ctx is the capability an App receives from its hosting protocol process.
type Ctx interface {
	// Self returns the hosting process identifier.
	Self() ids.ProcID
	// N returns the number of application processes.
	N() int
	// Send transmits an application payload to another process through the
	// logging protocol, and takes the payload: its Data becomes the
	// protocol's record of the message (the sender-based log's entry), so the
	// app must not write it afterwards. The payload means Data, then Pad
	// zeros, which nothing allocates (wire.Writer.Pad writes the field and
	// counts them; wire.Reader.Tail reads it back).
	Send(to ids.ProcID, payload storage.Image)
	// Work charges d nanoseconds of simulated computation.
	Work(d int64)
	// Output declares payload as externally visible: the protocol records
	// the output's causal dependencies now and commits it — releases it to
	// the outside world — once its style's output-commit rule holds (all
	// determinants of antecedent deliveries f+1-replicated or stable for
	// FBL; covered by a committed snapshot for coordinated checkpointing;
	// all causally-preceding state intervals logged stable for optimistic
	// logging). The payload is not transmitted anywhere; hosts without an
	// output ledger treat this as a no-op.
	Output(payload []byte)
}

// App is a deterministic message-driven application.
//
// Determinism contract: Start and Handle must be pure functions of the app
// state and their arguments — no wall-clock, no shared globals, no
// goroutines. Given the same delivery sequence they must make the same
// Send calls in the same order.
type App interface {
	// Start runs once at the beginning of the computation (it is re-run
	// during recovery only when the checkpoint predates it).
	Start(ctx Ctx)
	// Handle processes one delivered message. The payload is read-only and
	// valid until Handle returns: it aliases the received frame, which the
	// runtime reuses afterwards, or a record the protocol keeps. It is the
	// payload as sent, its padding a count, whether it arrives or is restored
	// from a checkpoint, snapshot or log. A payload it cannot parse leaves the
	// state untouched and returns an error, which the host counts
	// (metrics.Proc.Rejected) instead of failing the run.
	Handle(ctx Ctx, from ids.ProcID, payload storage.Image) error
	// Snapshot serializes the complete application state.
	Snapshot() []byte
	// Restore replaces the state with a snapshot produced by Snapshot.
	Restore(data []byte) error
	// Digest returns a deterministic fingerprint of the current state.
	Digest() uint64
	// Done reports whether this process's share of the workload finished;
	// experiments poll it to know when the system has quiesced.
	Done() bool
}

// Factory builds the App for one process.
type Factory func(self ids.ProcID, n int) App

// Seeder is implemented by workloads whose random choices should vary with
// the run-level simulation seed. A harness calls Reseed immediately after
// the factory builds the app — before Start and before any Restore — so
// the mixed seed becomes part of the app's initial checkpointable state
// and replay fidelity is unaffected. Workloads that ignore the run seed
// (token ring, client–server, Figure 1) simply don't implement it.
type Seeder interface {
	Reseed(runSeed int64)
}

// Seeded wraps a factory so every app it builds is reseeded with runSeed
// (when the workload supports it). Harnesses apply this once at cluster
// construction; the wrapped factory is then used for every (re)build of a
// process image, so restarts see the same stream.
func Seeded(f Factory, runSeed int64) Factory {
	if f == nil {
		return nil
	}
	return func(self ids.ProcID, n int) App {
		a := f(self, n)
		if s, ok := a.(Seeder); ok {
			s.Reseed(runSeed)
		}
		return a
	}
}

// PRNG is a tiny serializable xorshift64* generator. Apps must use it (not
// math/rand, whose state cannot be checkpointed) for any randomness.
type PRNG struct {
	s uint64
}

// NewPRNG seeds a generator; a zero seed is replaced to keep the stream
// non-degenerate.
func NewPRNG(seed uint64) PRNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return PRNG{s: seed}
}

// Next returns the next 64-bit value.
func (p *PRNG) Next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Intn(%d)", n))
	}
	return int(p.Next() % uint64(n))
}

// State exposes the raw state for snapshots.
func (p PRNG) State() uint64 { return p.s }

// SetState restores the raw state.
func (p *PRNG) SetState(s uint64) { p.s = s }

// Mix64 is the shared digest mixer (splitmix64 finalizer).
func Mix64(h, v uint64) uint64 {
	h += v + 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}
