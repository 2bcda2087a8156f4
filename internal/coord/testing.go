package coord

// TestingStripRestartOrigin, when set, makes broadcastRollback never tag a
// rollback as restart-origin. A restarter whose own broadcast arrives stale —
// it was down through the current epoch's rollback — then never gets the
// fresh global rollback a live peer relays (onRollback), and the cluster runs
// on from state the crash destroyed.
//
// This is a test-only mutation knob for the explorer's self-test
// (internal/explore), with the rules of fbl.TestingDropDetPiggyback: it is
// read, unsynchronized, by every process of every cluster, so set it before
// explore.Run and clear it after Run returns, never during, and never outside
// tests.
var TestingStripRestartOrigin bool
