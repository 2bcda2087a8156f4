// Bank runs a replicated-ledger scenario on the simulator: process 0 is a
// bank server applying transfer requests from four client processes, all
// hosted by the FBL protocol. We crash the server mid-stream; message
// logging plus deterministic replay reconstruct its ledger — no transfer is
// lost or applied twice — which the program checks against a crash-free run
// of the same cluster: the server applied as many transfers, every client
// ended in the same state, and no invariant broke. (The server's own digest
// folds transfers in arrival order, and which of four concurrent clients is
// served first after a recovery is timing, not state: it is not compared.)
package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"rollrec"
)

const (
	n         = 5
	perClient = 2000
	crashAt   = 20 * time.Second
)

func newBank() *rollrec.Cluster {
	return rollrec.NewCluster(rollrec.Config{
		N:               n,
		F:               2,
		Seed:            3,
		HW:              rollrec.Profile1995(),
		Style:           rollrec.NonBlocking,
		App:             rollrec.ClientServer(perClient, 128, int64(2*time.Millisecond)),
		CheckpointEvery: rollrec.DefaultCheckpointEvery,
		StatePad:        256 << 10,
	})
}

// applied reads the server's ledger length.
func applied(c *rollrec.Cluster) uint64 {
	return c.App(0).(interface{ Applied() uint64 }).Applied()
}

func main() {
	ref := newBank()
	if !ref.RunUntilDone(time.Second, 10*time.Minute) {
		fmt.Println("crash-free run did not finish")
		os.Exit(1)
	}
	fmt.Printf("crash-free run: %d clients streamed %d transfers to the server (p0)\n", n-1, applied(ref))

	c := newBank()
	c.Crash(crashAt, 0)
	c.Run(crashAt - time.Millisecond)
	fmt.Printf("same run again: server has applied %d transfers at %v — crashing it now\n", applied(c), crashAt)
	if !c.RunUntilDone(time.Second, 10*time.Minute) {
		fmt.Println("server never resumed — recovery failed")
		os.Exit(1)
	}
	tr := c.Metrics(0).CurrentRecovery()
	fmt.Printf("server recovered (crash → live in %v of modeled time) and kept going: %d transfers applied\n",
		time.Duration(tr.ReplayedAt-tr.CrashedAt).Round(time.Millisecond), applied(c))

	same := applied(c) == applied(ref) && slices.Equal(c.Digests()[1:], ref.Digests()[1:])
	errs := c.Check()
	fmt.Printf("transfers applied and client states equal the crash-free run's: %v (%d invariant violations)\n", same, len(errs))
	if !same || len(errs) != 0 {
		os.Exit(1)
	}
	fmt.Println("the ledger was rebuilt from the clients' volatile message logs: nothing lost, nothing doubled")
}
