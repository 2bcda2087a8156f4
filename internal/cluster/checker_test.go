package cluster

import (
	"strings"
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// These tests verify the invariant CHECKER itself: a checker that cannot
// detect violations proves nothing about the protocol.

func quietCluster(t *testing.T) *Cluster {
	t.Helper()
	c := New(Config{
		N:               3,
		F:               2,
		Seed:            2,
		HW:              fastHW(),
		Style:           recovery.NonBlocking,
		App:             workload.NewTokenRing(10, 0, 0),
		CheckpointEvery: time.Second,
	})
	c.Run(2 * time.Second)
	if errs := c.Check(); len(errs) != 0 {
		t.Fatalf("baseline cluster must be clean: %v", errs)
	}
	return c
}

func hasViolation(errs []error, substr string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return true
		}
	}
	return false
}

func TestCheckerDetectsOrphan(t *testing.T) {
	c := quietCluster(t)
	// Fabricate a delivery whose send never happened on any timeline.
	c.deliveries[2] = grown(c.deliveries[2], 99)
	c.deliveries[2][99] = deliverInfo{msg: ids.MsgID{Sender: 0, SSN: 9999}, hash: 42}
	if !hasViolation(c.Check(), "orphan") {
		t.Fatal("checker missed a fabricated orphan")
	}
}

func TestCheckerDetectsContentMismatch(t *testing.T) {
	c := quietCluster(t)
	// Take an existing delivery and corrupt its recorded hash.
	for rsn, d := range c.deliveries[1] {
		if d.delivered() {
			c.deliveries[1][rsn].hash ^= 0xdead
			break
		}
	}
	if !hasViolation(c.Check(), "orphan") {
		t.Fatal("checker missed a content mismatch")
	}
}

func TestCheckerDetectsDoubleDelivery(t *testing.T) {
	c := quietCluster(t)
	// Simulate the protocol delivering the same message twice at two
	// receive positions within one timeline.
	id := ids.MsgID{Sender: 0, SSN: 1}
	c.onDeliver(2, id, 0, 500, 7)
	c.onDeliver(2, id, 0, 501, 7)
	if !hasViolation(c.Check(), "exactly-once") {
		t.Fatal("checker missed a double delivery")
	}
}

func TestCheckerDetectsReplayInfidelity(t *testing.T) {
	c := quietCluster(t)
	id := ids.MsgID{Sender: 0, SSN: 1}
	c.onDeliver(2, id, 0, 500, 7)
	c.onDeliver(2, id, 0, 500, 8) // same rsn, different content
	if !hasViolation(c.Check(), "replay fidelity") {
		t.Fatal("checker missed divergent replay content")
	}
}

func TestCheckerDetectsStuckRecovery(t *testing.T) {
	c := quietCluster(t)
	// Crash for real but stop the clock before the watchdog can even
	// detect it: the kernel's effective-crash counter (what liveness
	// compares against) outruns completed recoveries.
	c.Crash(2100*time.Millisecond, 0)
	c.Run(2200 * time.Millisecond)
	errs := c.Check()
	if !hasViolation(errs, "liveness") {
		t.Fatal("checker missed a stuck recovery")
	}
}

func TestTimelineTruncationOnRollback(t *testing.T) {
	c := quietCluster(t)
	// A process delivers msgs at rsn 500..502, crashes, and its recovered
	// timeline replaces rsn 500 with a different message: the checker must
	// discard the stale tail rather than flag it.
	c.onDeliver(2, ids.MsgID{Sender: 0, SSN: 101}, 0, 500, 1)
	c.onDeliver(2, ids.MsgID{Sender: 0, SSN: 102}, 0, 501, 2)
	c.onDeliver(2, ids.MsgID{Sender: 0, SSN: 103}, 0, 502, 3)
	// Matching sends so the orphan check is satisfied for the survivor.
	c.onSend(0, ids.MsgID{Sender: 0, SSN: 201}, 2, 9)
	c.onDeliver(2, ids.MsgID{Sender: 0, SSN: 201}, 0, 500, 9)
	if len(c.deliveries[2]) != 501 {
		t.Fatalf("stale tail beyond the reused rsn must be dropped: timeline ends at rsn %d, want 500", len(c.deliveries[2])-1)
	}
}

func TestOnLiveTruncatesTimelines(t *testing.T) {
	c := quietCluster(t)
	c.onSend(1, ids.MsgID{Sender: 1, SSN: 900}, 2, 1)
	c.onDeliver(1, ids.MsgID{Sender: 0, SSN: 900}, 0, 800, 1)
	c.onLive(1, 2, 100, 100) // recovery frontier far below the fake events
	if len(c.sends[1]) > 101 {
		t.Fatal("sends beyond the recovery frontier must be dropped")
	}
	if len(c.deliveries[1]) > 101 {
		t.Fatal("deliveries beyond the recovery frontier must be dropped")
	}
	if _, dup := c.seen[1][ids.MsgID{Sender: 0, SSN: 900}]; dup {
		t.Fatal("a dropped delivery must leave the duplicate index")
	}
}
