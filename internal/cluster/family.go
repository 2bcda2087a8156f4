package cluster

import (
	"rollrec/internal/coord"
	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/optimistic"
	"rollrec/internal/output"
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

// factory builds the slots' node.Renew from the cluster's Config. app is
// already seeded; outs is nil unless TrackOutputs.
type factory func(c *Cluster, app workload.Factory, outs output.Sink) node.Renew

// families is the per-family table, consulted once per build. It names the
// concrete protocol types; the rest of the harness sees node.Process and
// hosted, bar Proc below, the FBL checker's own.
var families = map[Family]factory{
	FamilyFBL: func(c *Cluster, app workload.Factory, outs output.Sink) node.Renew {
		cfg := c.cfg
		c.resetChecker(cfg.N)
		return fbl.New(fbl.Params{
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
	FamilyCoordinated: func(c *Cluster, app workload.Factory, outs output.Sink) node.Renew {
		return coord.New(coord.Params{
			App:           app,
			SnapshotEvery: c.cfg.CheckpointEvery,
			StatePad:      c.cfg.StatePad,
			Outputs:       outs,
		})
	},
	FamilyOptimistic: func(c *Cluster, app workload.Factory, outs output.Sink) node.Renew {
		return optimistic.New(optimistic.Params{
			App:        app,
			FlushEvery: c.cfg.CheckpointEvery,
			StatePad:   c.cfg.StatePad,
			// The retransmission retry only arms after a rollback; pace it
			// off the failure detector like the other recovery timers.
			RetryEvery: 4 * c.cfg.HW.HeartbeatEvery,
			Outputs:    outs,
		})
	},
}

// hosted is the surface every family's process offers the harness beyond
// node.Process: the application it hosts, the open-loop arrival port, and
// its lifecycle phase. A process that keeps a volatile log also answers
// LogSizes() (journal, lag int): entries held and entries not yet stable.
type hosted interface {
	node.Process
	App() workload.App
	Inject(payload []byte) bool
	Phase() node.Phase
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
