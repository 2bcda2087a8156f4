package fbl

import "rollrec/internal/wire"

// TestingDropDetPiggyback, when set, strips the causal determinant
// piggyback from every application send: determinants are logged locally
// and count as offered, but copies never reach other holders, so the f+1
// stability the protocol's orphan-freedom and output-commit arguments rest
// on is silently never established. A crash then forces the victim to
// replay from retransmissions whose interleaving the lost determinants were
// supposed to pin — the classic message-logging bug class.
//
// This is a test-only mutation knob: the explorer's mutation self-test
// (internal/explore) flips it to prove the invariant checker actually
// detects a seeded-in violation rather than passing vacuously. Never set it
// outside tests. It is read, unsynchronized, by every process of every
// cluster, and explore.Run builds its branch clusters on several goroutines:
// set it before Run and clear it after Run returns, never during.
var TestingDropDetPiggyback bool

// TestingDepInfoPendingOnly, when set, makes a live process answer every
// depinfo request with its pending determinants only, leaving out the
// settled ones: stable, so held by f+1 processes, and the gather is how the
// recovering process gets them back. It then replays from an incomplete
// schedule and diverges from the execution the survivors' logs record.
// Like TestingDropDetPiggyback it is a mutation knob for the explorer's
// self-test, with the same rules: set it before explore.Run, clear it after
// Run returns, never outside tests.
var TestingDepInfoPendingOnly bool

// TestingKeepStaleLog, when set, makes Boot of a kept process skip det.Log.Reset:
// a reused cluster's run starts with its predecessor's determinants. Rules above.
var TestingKeepStaleLog bool

// TestingRetainRx, when set, makes every frame a process puts aside for
// later — deferred while blocked, restoring or recovering, or held for its
// turn in replay — the envelope the runtime delivered it in instead of a
// Keep copy. The runtime decodes the next frame into that envelope, so what
// was put aside later reads as whichever frame came last: the envelope
// ownership rule (node.Process.Deliver) broken. Like the knobs above it is a
// mutation knob for the self-tests, with the same rules.
var TestingRetainRx bool

// keep is what a process stores of the frame e it is delivering, to consume
// it after Deliver returns: e.Keep(), or under TestingRetainRx the runtime's
// envelope. It never stores e, Deliver's own copy of that envelope, which
// would then move to the heap on every frame (TestHeartbeatDeliverAllocs).
func (p *Process) keep(e *wire.Envelope) *wire.Envelope {
	if TestingRetainRx {
		return p.rx
	}
	return e.Keep()
}
