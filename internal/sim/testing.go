package sim

// TestingPoisonFrames, when set, makes every kernel overwrite each frame
// buffer it takes back (Kernel.releaseFrame) with poisonByte and never reuse
// it: a payload read past its Deliver then reads poison, not the bytes of a
// later frame and not, by luck, its own. Tests that run with it on require
// results byte-identical to the run without it. Never set it outside tests;
// set it before a run and clear it after the run returns, never during
// (sharded runs and the explorer read it from several goroutines).
var TestingPoisonFrames bool

// poisonByte is what a poisoned buffer holds: non-zero, so no length field,
// count or padding read from it is empty.
const poisonByte = 0xA5
