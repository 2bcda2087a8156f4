package fbl

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
// outside tests.
var TestingDropDetPiggyback bool
