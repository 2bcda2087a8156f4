package coord

import (
	"rollrec/internal/storage"
	"rollrec/internal/workload"
)

// Inject hands the application an open-loop arrival (a user request
// entering at this process), delivered as a message from itself. Sends it
// triggers stamp the current epoch and dseq counters, so they are ordinary
// in-epoch traffic to every receiver.
//
// Rollback soundness: an injection is a local event. The committed global
// snapshot captures the application state and the dseq counters on the
// consistent cut, so a rollback undoes an injected arrival's effects on
// every process or on none — the arrival itself is simply lost, exactly
// as a request reaching a service mid-rollback is. A rolling-back process
// sheds (returns false) rather than mutating state that is about to be
// reset.
func (p *Process) Inject(payload []byte) bool {
	if p.rollingBack {
		return false
	}
	if p.app.Handle(appCtx{p}, p.env.ID(), storage.Image{Data: payload}) != nil {
		p.env.Metrics().Rejected++
	}
	return true
}

// App exposes the hosted application for harness probes (timeline
// in-flight gauges); same accessor the other styles provide.
func (p *Process) App() workload.App { return p.app }
