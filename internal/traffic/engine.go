package traffic

import (
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/workload"
)

// Host is the injection surface a harness lends the engine: At schedules a
// callback at an absolute virtual time on the simulation clock, Inject
// offers one arrival frame to a process and reports whether it was
// admitted. The cluster harness satisfies it for every family with
// Host{At: c.K.At, Inject: c.Inject}.
type Host struct {
	At     func(at time.Duration, fn func())
	Inject func(p ids.ProcID, payload []byte) bool
}

// Engine drives the open-loop arrival processes against the client tier.
// It is harness-side state — never checkpointed, never rolled back — which
// is exactly the open-loop model: the outside world keeps sending at its
// own pace regardless of what the cluster is going through. Arrivals that
// land on a crashed, blocked, or rolling-back client are shed, not queued.
//
// Determinism: each client owns a PRNG seeded from (runSeed, client), and
// both its gaps and its request bodies come from that stream, so the full
// arrival schedule is a pure function of the seed and spec. Gaps are
// sampled with the integer-only samplers in arrival.go and scheduled as
// harness callbacks (sim.Sharded.At: between shard runs, before the instant's
// process events), so an arrival's order against the cluster's events is the
// same for any shard count.
type Engine struct {
	spec    workload.Traffic
	host    Host
	horizon time.Duration
	clients []clientSource

	offered  int64
	admitted int64
	shed     int64
}

// clientSource is one client's arrival stream.
type clientSource struct {
	rng    workload.PRNG
	seq    uint64
	nextAt int64 // absolute virtual ns of the next arrival
}

// NewEngine builds an engine for the given traffic spec and run seed.
func NewEngine(spec workload.Traffic, seed int64) *Engine {
	spec.Validate()
	e := &Engine{spec: spec, clients: make([]clientSource, spec.Clients)}
	for i := range e.clients {
		e.clients[i].rng = workload.NewPRNG(workload.Mix64(uint64(seed), 0x656E67696E65+uint64(i)))
	}
	return e
}

// Attach starts the arrival processes on the given host: each client's
// first arrival is scheduled at its first sampled gap, and every arrival
// schedules the next, up to (and including) the horizon. Attach must be
// called before the simulation runs.
func (e *Engine) Attach(h Host, horizon time.Duration) {
	if h.At == nil || h.Inject == nil {
		panic("traffic: host needs both At and Inject")
	}
	e.host, e.horizon = h, horizon
	for i := range e.clients {
		e.schedule(i)
	}
}

func (e *Engine) schedule(ci int) {
	c := &e.clients[ci]
	c.nextAt += nextGap(e.spec.Arrival, &c.rng, e.spec.MeanGap())
	if at := time.Duration(c.nextAt); at <= e.horizon {
		e.host.At(at, func() { e.arrive(ci) })
	}
}

func (e *Engine) arrive(ci int) {
	c := &e.clients[ci]
	c.seq++
	e.offered++
	if e.host.Inject(ids.ProcID(ci), arrivalFrame(c.seq, c.rng.Next())) {
		e.admitted++
	} else {
		e.shed++
	}
	e.schedule(ci)
}

// Offered reports the total arrivals generated within the horizon.
func (e *Engine) Offered() int64 { return e.offered }

// Admitted reports arrivals the client tier accepted.
func (e *Engine) Admitted() int64 { return e.admitted }

// Shed reports arrivals lost to an unavailable client (crashed, blocked,
// or rolling back) — the open-loop analogue of a connection error.
func (e *Engine) Shed() int64 { return e.shed }
