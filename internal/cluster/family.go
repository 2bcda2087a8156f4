package cluster

import (
	"rollrec/internal/coord"
	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/optimistic"
	"rollrec/internal/output"
	"rollrec/internal/timeline"
	"rollrec/internal/workload"
)

// Family selects the recovery-protocol family a cluster hosts. The values
// are the names the explorer's reports and CLI flags use.
type Family string

const (
	// FamilyFBL is the paper's family-based logging (all three recovery
	// styles); the zero Family selects it.
	FamilyFBL Family = "fbl"
	// FamilyCoordinated is Chandy–Lamport coordinated checkpointing with
	// global rollback.
	FamilyCoordinated Family = "coordinated"
	// FamilyOptimistic is optimistic message logging (Strom–Yemini style).
	FamilyOptimistic Family = "optimistic"
)

// family is one row of the per-family table: the only places the harness
// needs a protocol's concrete process type. The row is consulted at
// construction, at sampler ticks, and at end of run — never on a protocol
// hot path. This file holds every concrete-type assertion on a protocol
// process; the rest of the harness sees node.Process and hosted.
type family struct {
	// factory builds the process factory from the cluster's Config. app is
	// already seeded; outs is nil unless TrackOutputs. Families that roll
	// live processes back route the lost deliveries to c.noteLost.
	factory func(c *Cluster, app workload.Factory, outs output.Sink) node.Factory
	// phase maps a live process onto the timeline phase alphabet.
	phase func(p node.Process) timeline.Phase
	// logSizes reads a live process's volatile log: entries held and
	// entries not yet stable. Nil for families that keep no log.
	logSizes func(p node.Process) (journal, lag int)
}

var families = map[Family]family{
	FamilyFBL: {
		factory: func(c *Cluster, app workload.Factory, outs output.Sink) node.Factory {
			cfg := c.cfg
			c.sends = make([][]sendInfo, cfg.N)
			c.deliveries = make([][]deliverInfo, cfg.N)
			c.seen = make([]map[ids.MsgID]ids.RSN, cfg.N)
			for i := range c.seen {
				c.seen[i] = make(map[ids.MsgID]ids.RSN)
			}
			return fbl.New(fbl.Params{
				N:               cfg.N,
				F:               cfg.F,
				Fanout:          cfg.Fanout,
				App:             app,
				Style:           cfg.Style,
				CheckpointEvery: cfg.CheckpointEvery,
				StatePad:        cfg.StatePad,
				HeartbeatEvery:  cfg.HW.HeartbeatEvery,
				SuspectAfter:    cfg.HW.SuspectAfter,
				Outputs:         outs,
				Hooks: fbl.Hooks{
					OnSend:    c.onSend,
					OnDeliver: c.onDeliver,
					OnLive:    c.onLive,
				},
			})
		},
		// ModeLive splits into live vs blocked (the paper's intrusion).
		phase: func(p node.Process) timeline.Phase {
			pr := p.(*fbl.Process)
			switch pr.Mode() {
			case fbl.ModeRestoring:
				return timeline.PhaseRestoring
			case fbl.ModeRecovering:
				return timeline.PhaseRecovering
			case fbl.ModeReplaying:
				return timeline.PhaseReplaying
			default:
				if pr.Blocked() {
					return timeline.PhaseBlocked
				}
				return timeline.PhaseLive
			}
		},
		logSizes: func(p node.Process) (int, int) {
			pr := p.(*fbl.Process)
			return pr.DetLogLen(), pr.DetPending()
		},
	},
	FamilyCoordinated: {
		factory: func(c *Cluster, app workload.Factory, outs output.Sink) node.Factory {
			c.lost = make([]LostWork, c.cfg.N)
			return coord.New(coord.Params{
				N:             c.cfg.N,
				App:           app,
				SnapshotEvery: c.cfg.CheckpointEvery,
				StatePad:      c.cfg.StatePad,
				Outputs:       outs,
				Hooks: coord.Hooks{
					OnRollback: func(p ids.ProcID, _ uint32, lost int64) { c.noteLost(p, lost) },
				},
			})
		},
		phase: func(p node.Process) timeline.Phase {
			if p.(*coord.Process).Recovering() {
				return timeline.PhaseRecovering
			}
			return timeline.PhaseLive
		},
	},
	FamilyOptimistic: {
		factory: func(c *Cluster, app workload.Factory, outs output.Sink) node.Factory {
			c.lost = make([]LostWork, c.cfg.N)
			return optimistic.New(optimistic.Params{
				N:          c.cfg.N,
				App:        app,
				FlushEvery: c.cfg.CheckpointEvery,
				StatePad:   c.cfg.StatePad,
				// The retransmission retry only arms after a rollback; pace
				// it off the failure detector like the other recovery timers.
				RetryEvery: 4 * c.cfg.HW.HeartbeatEvery,
				Outputs:    outs,
				Hooks: optimistic.Hooks{
					OnOrphan: func(p, _ ids.ProcID, lost int64) { c.noteLost(p, lost) },
				},
			})
		},
		phase: func(p node.Process) timeline.Phase {
			if p.(*optimistic.Process).Rolling() {
				return timeline.PhaseRecovering
			}
			return timeline.PhaseLive
		},
		logSizes: func(p node.Process) (int, int) {
			total, durable := p.(*optimistic.Process).LogSizes()
			return total, total - durable
		},
	},
}

// hosted is the surface every family's process offers the harness beyond
// node.Process: the application it hosts and the open-loop arrival port.
type hosted interface {
	node.Process
	App() workload.App
	Inject(payload []byte) bool
}

// hosted returns the protocol instance at p, or nil while p is down.
func (c *Cluster) hosted(p ids.ProcID) hosted {
	pr, _ := c.K.ProcOf(p).(hosted)
	return pr
}

// Proc returns the FBL protocol instance at p, or nil while p is down or
// when the cluster hosts another family.
func (c *Cluster) Proc(p ids.ProcID) *fbl.Process {
	if pr, ok := c.K.ProcOf(p).(*fbl.Process); ok {
		return pr
	}
	return nil
}
