// Package mutant is the one switch through which tests seed a known bug into
// the protocol packages: the explorer's mutation self-test
// (TestMutationDetected, DESIGN §13) sets On to prove that its checks detect
// the bug rather than pass vacuously, and production code reads each value
// at exactly one place. What each bug breaks, and the check that kills it,
// is in that test's row list.
//
// On is test-only: never set it outside tests. Every process of every
// cluster reads it unsynchronised, on every shard and every branch worker of
// explore.Run, so set it before a run and clear it (to None) after the run
// returns, never during.
package mutant

// Mutant names one seeded bug; None is the protocol as written.
type Mutant uint8

const (
	None                 Mutant = iota
	DropDetPiggyback            // fbl: sends offer their determinants but carry none
	DepInfoPendingOnly          // fbl: a depinfo reply leaves out the settled determinants
	KeepStaleLog                // fbl: Boot of a kept process keeps its determinant log
	RetainRx                    // fbl: a frame put aside is the runtime's envelope, not a Keep copy
	KeepSharesPayload           // wire: Keep shares the frame's payload (run with sim.TestingPoisonFrames)
	AnswerWhileRestoring        // recovery: a restoring process answers gathers on the live path
	StripRestartOrigin          // coord: no rollback is tagged restart-origin
)

// On is the mutant in force: None outside the mutation tests.
var On Mutant
