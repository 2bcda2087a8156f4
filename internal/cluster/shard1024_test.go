package cluster

import (
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// config1024 is the n=1024 scale scenario: the sharded conservative-window
// scheduler and the fanout protocol mode together (ROADMAP item 1). Finite
// gossip chains let the traffic quiesce inside the horizon; the fanout of 8
// keeps the per-process dissemination cost O(k) instead of O(n).
func config1024(shards int) Config {
	return Config{
		N:               1024,
		F:               1,
		Seed:            1,
		HW:              node.Profile1995(),
		Style:           recovery.NonBlocking,
		App:             workload.NewRandomPeer(1, 40, 64, int64(time.Millisecond)),
		CheckpointEvery: 3 * time.Second,
		StatePad:        1 << 12,
		Shards:          shards,
		Fanout:          8,
	}
}

// TestSharded1024CrashRestart is the scale gate: a 1024-process cluster on
// 4 shards survives a mid-run crash — watchdog restart, scoped dependency
// gather, replay — and ends with every cross-process invariant intact.
func TestSharded1024CrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1024 scenario is a long test")
	}
	c := New(config1024(4))
	c.ApplyPlan(failure.Plan{{At: 5 * time.Second, Proc: 100}})
	c.Run(16 * time.Second)
	if errs := c.Check(); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("n=1024 sharded run inconsistent (%d violations)", len(errs))
	}
	if tr := c.Metrics(100).CurrentRecovery(); tr == nil || tr.ReplayedAt == 0 {
		t.Fatal("crashed process never completed recovery")
	}
	p := c.Proc(ids.ProcID(100))
	if p == nil {
		t.Fatal("process 100 still down after horizon")
	}
	if got := p.App().Digest(); got == 0 {
		t.Error("restarted process has empty application state")
	}
}

// TestSharded1024Deterministic proves the scale scenario's digests are a
// function of the seed alone: 1 shard and 4 shards must agree exactly.
func TestSharded1024Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1024 scenario is a long test")
	}
	run := func(shards int) []uint64 {
		c := New(config1024(shards))
		c.ApplyPlan(failure.Plan{{At: 5 * time.Second, Proc: 100}})
		c.Run(16 * time.Second)
		if errs := c.Check(); len(errs) > 0 {
			t.Fatalf("shards=%d inconsistent: %v", shards, errs[0])
		}
		return c.Digests()
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("digest of proc %d differs across shard counts: %#x vs %#x", i, a[i], b[i])
		}
	}
}
