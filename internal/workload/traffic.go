package workload

import (
	"fmt"
	"time"

	"rollrec/internal/ids"
)

// Tier names a position in the open-loop serving topology: requests enter
// at clients, fan out through frontends to backends, and the protocols'
// stable storage stands in for the storage tier.
type Tier uint8

const (
	// TierClient terminates user requests: it admits open-loop arrivals,
	// forwards them to a frontend, and releases the response to the user
	// (the user-visible output commit).
	TierClient Tier = iota
	// TierFrontend fans each request out to FanOut backends and fans the
	// shard replies back in.
	TierFrontend
	// TierBackend applies one shard of a request and replies.
	TierBackend
)

// String names the tier.
func (t Tier) String() string {
	return [...]string{"client", "frontend", "backend"}[t]
}

// Arrival selects the inter-arrival process of the open-loop engine.
type Arrival uint8

const (
	// ArrivalPoisson draws exponential inter-arrival gaps (memoryless open
	// loop, the M/…/… baseline).
	ArrivalPoisson Arrival = iota
	// ArrivalPareto draws bounded-Pareto gaps (alpha = 3/2, bounded at
	// 100x the scale): a heavy tail that bursts arrivals and starves the
	// gaps between bursts, the classic self-similar traffic shape.
	ArrivalPareto
)

// String names the arrival process.
func (a Arrival) String() string {
	return [...]string{"poisson", "pareto"}[a]
}

// Traffic describes an open-loop multi-tier serving workload: the tier
// topology (processes [0,Clients) are clients, the next Frontends are
// frontends, the rest backends), the request fan-out, and the arrival
// process the harness-side engine drives against the client tier. The
// protocols underneath are untouched — arrivals enter through a host
// injection point and everything downstream is ordinary application
// messaging, so each style's recovery and output-commit machinery applies
// to the request flow unchanged.
type Traffic struct {
	// Clients, Frontends, Backends partition the n processes into tiers,
	// in that id order. All three must be >= 1.
	Clients, Frontends, Backends int
	// FanOut is how many backends each request's shards hit (1..Backends).
	FanOut int
	// Arrival selects the inter-arrival process.
	Arrival Arrival
	// Load is the aggregate offered load in requests per second across
	// all clients (> 0).
	Load int
	// WorkPerHop is simulated compute per backend shard, in nanoseconds.
	WorkPerHop int64
	// PayloadPad inflates request frames to model realistic sizes.
	PayloadPad int
}

// N returns the total process count the topology needs.
func (t Traffic) N() int { return t.Clients + t.Frontends + t.Backends }

// Validate reports why a topology is unusable, or nil: every tier holds a
// process, the fan-out fits the backend tier, the load is positive and the
// arrival process is known.
func (t Traffic) Validate() error {
	if t.Clients < 1 || t.Frontends < 1 || t.Backends < 1 {
		return fmt.Errorf("workload: traffic tiers %d/%d/%d all need at least one process",
			t.Clients, t.Frontends, t.Backends)
	}
	if t.FanOut < 1 || t.FanOut > t.Backends {
		return fmt.Errorf("workload: traffic fan-out %d out of range [1,%d]", t.FanOut, t.Backends)
	}
	if t.Load <= 0 {
		return fmt.Errorf("workload: traffic load %d req/s must be positive", t.Load)
	}
	if t.Arrival > ArrivalPareto {
		return fmt.Errorf("workload: unknown arrival process %d", t.Arrival)
	}
	return nil
}

// TierOf maps a process id to its tier.
func (t Traffic) TierOf(p ids.ProcID) Tier {
	switch {
	case int(p) < t.Clients:
		return TierClient
	case int(p) < t.Clients+t.Frontends:
		return TierFrontend
	default:
		return TierBackend
	}
}

// TierSizes returns the per-tier process counts in tier order — the shape
// the timeline collector's per-tier series are configured with.
func (t Traffic) TierSizes() []int { return []int{t.Clients, t.Frontends, t.Backends} }

// MeanGap returns the per-client mean inter-arrival gap implied by the
// aggregate load, in nanoseconds of virtual time.
func (t Traffic) MeanGap() int64 {
	return int64(t.Clients) * int64(time.Second) / int64(t.Load)
}
