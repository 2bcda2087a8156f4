package fbl

import (
	"rollrec/internal/recovery"
	"rollrec/internal/storage"
)

// Inject hands the application an open-loop arrival: a nondeterministic
// event originating outside the cluster (a user request entering at this
// process), delivered to the app as a message from itself. The handling —
// and every send and output it triggers — runs through the ordinary
// appCtx paths, so downstream processes see plain logged application
// traffic.
//
// Replay soundness: FBL logs message receipts, not injections, so a
// crashed process cannot regenerate the arrivals it admitted — its replay
// would silently drop them and orphan every receiver of the sends they
// caused. Injections are therefore only sound on processes that never
// crash; the traffic harness keeps the client tier out of every crash
// plan, and the cluster-level orphan check (cluster.Check) would flag a
// violation of that discipline. A busy host sheds instead of queueing:
// Inject reports false — and the arrival is lost, as an open-loop
// request to an unavailable endpoint is — unless the process is live and
// unblocked.
func (p *Process) Inject(payload []byte) bool {
	if p.mgr.State() != recovery.StateLive || p.mgr.Blocked() {
		return false
	}
	if p.app.Handle(appCtx{p}, p.env.ID(), storage.Image{Data: payload}) != nil {
		p.env.Metrics().Rejected++
	}
	// The arrival may have requested outputs whose rule already holds
	// (same pattern as the Deliver tail).
	p.checkOutputs()
	return true
}
