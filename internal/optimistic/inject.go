package optimistic

import "rollrec/internal/storage"

// Inject hands the application an open-loop arrival (a user request
// entering at this process). Unlike the other styles, optimistic logging
// can make injections crash-safe on any process: the arrival is recorded
// as a log entry from the process itself, so rebuildFrom replays it in
// receive order like any other delivery and the re-execution regenerates
// the same downstream sends with the same counters. The entry rides the
// existing logEntry/wire encoding (from is a signed field, and a
// self-entry's dseq uses the otherwise-idle in.Exp[self] lane); it
// advances the state-interval index like any delivery, so the
// dependency-vector accounting — orphan detection, flush frontiers,
// output commits — covers injected work with no special cases.
//
// A rolling-back process sheds (returns false): its log suffix is being
// rebuilt and an interleaved fresh arrival would fork the replayed
// timeline.
func (p *Process) Inject(payload []byte) bool {
	if p.rolling {
		return false
	}
	self := p.env.ID()
	p.applyDelivery(self, 0, p.in.Exp[self]+1, storage.Image{Data: payload}, nil, false)
	return true
}
