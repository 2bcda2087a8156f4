package experiments

import (
	"context"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
)

// D9 compares the paper's protocol family against the classic alternative
// its related work contrasts it with: coordinated checkpointing
// (Chandy–Lamport snapshots [6]) with global rollback. Message logging
// confines a failure's cost to the failed process; a coordinated protocol
// makes every process roll back and redo work, and stalls every live
// process for a stable-storage restore.
func D9(ctx context.Context, seed int64) Table {
	t := Table{
		ID:      "D9",
		Title:   "message logging vs coordinated checkpointing (single failure, n=8)",
		Columns: []string{"design", "victim recovery", "live blocked (mean)", "deliveries redone (cluster)", "ff storage writes"},
		Notes: []string{
			"'deliveries redone' counts work re-executed after the failure: only the victim's replay",
			"under logging, everyone's lost suffix under coordinated rollback",
		},
	}

	// Message logging with the paper's non-blocking recovery.
	spec := PaperSpec(recovery.NonBlocking, seed)
	spec.Crashes = failure.Plan{{At: 10 * time.Second, Proc: 3}}
	r := MustRun(ctx, spec)
	if ctx.Err() != nil {
		return t
	}
	victim := r.Victim(3)
	mean, _ := r.LiveBlocked()
	met3 := r.C.Metrics(3)
	redone := met3.Delivered - int64(r.C.Proc(3).RSN())
	if redone < 0 {
		redone = 0
	}
	var ffWrites int64
	for i := 0; i < spec.N; i++ {
		ffWrites += r.C.Metrics(ids.ProcID(i)).StorageWrites
	}
	t.AddRow("fbl + nonblocking recovery", victim.Total(), mean, redone, ffWrites)

	// Coordinated checkpointing with global rollback: same hardware, same
	// gossip shape, same crash.
	c := MustRun(ctx, comparator(spec, cluster.FamilyCoordinated))
	if ctx.Err() != nil {
		return t
	}
	var lost, writes int64
	for i := 0; i < spec.N; i++ {
		lost += c.C.LostWork(ids.ProcID(i)).Deliveries
		writes += c.C.Metrics(ids.ProcID(i)).StorageWrites
	}
	blocked, _ := c.LiveBlocked()
	t.AddRow("coordinated (Chandy–Lamport)", c.Victim(3).Total(), blocked, lost, writes)
	return t
}
