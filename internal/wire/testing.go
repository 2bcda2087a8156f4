package wire

// TestingKeepSharesPayload, when set, makes Envelope.Keep share the frame's
// payload instead of copying it, as it did while a frame outlived its
// delivery: a kept frame then reads whatever the runtime encodes into the
// recycled buffer next. It is a mutation knob for the explorer's self-test,
// run with sim.TestingPoisonFrames so the reuse cannot go unseen. Never set
// it outside tests; set it before a run and clear it after the run returns,
// never during (the explorer reads it from several goroutines).
var TestingKeepSharesPayload bool
