package rollrec_test

import (
	"fmt"
	"slices"
	"time"

	"rollrec"
)

// fastHardware is the 1995 profile with the failure-handling timeouts
// shrunk so the examples run fast; the structure is identical to the
// paper-scale configuration.
func fastHardware() rollrec.Hardware {
	hw := rollrec.Profile1995()
	hw.WatchdogDetect = 200 * time.Millisecond
	hw.RestartDelay = 50 * time.Millisecond
	hw.SuspectAfter = 300 * time.Millisecond
	hw.HeartbeatEvery = 50 * time.Millisecond
	hw.CPUMsgCost = 20 * time.Microsecond
	hw.CPUByteCost = 0
	hw.Disk.Latency = time.Millisecond
	hw.Disk.ReadBandwidth = 100e6
	hw.Disk.WriteBandwidth = 100e6
	return hw
}

// Example_recoverFromCrash runs the documented quick-start flow: a
// four-process token ring under the FBL protocol, one injected crash, and
// the paper's non-blocking recovery bringing the victim back while nobody
// else blocks.
func Example_recoverFromCrash() {
	hw := fastHardware()

	c := rollrec.NewCluster(rollrec.Config{
		N:               4,
		F:               2,
		Seed:            1,
		HW:              hw,
		Style:           rollrec.NonBlocking,
		App:             rollrec.TokenRing(800, 32, int64(500*time.Microsecond)),
		CheckpointEvery: 300 * time.Millisecond,
		StatePad:        8 << 10,
	})
	c.Crash(800*time.Millisecond, 1)
	if !c.RunUntilDone(500*time.Millisecond, time.Minute) {
		fmt.Println("did not settle")
		return
	}

	fmt.Println("violations:", len(c.Check()))
	fmt.Println("p1 recovered:", c.Metrics(1).CurrentRecovery().Total() > 0)
	fmt.Println("live processes blocked:", c.Metrics(0).BlockedTotal()+c.Metrics(2).BlockedTotal()+c.Metrics(3).BlockedTotal())
	// Output:
	// violations: 0
	// p1 recovered: true
	// live processes blocked: 0s
}

// Example_bankServerCrash is examples/bank at example scale: four clients
// stream transfers to a bank server (process 0), the server crashes
// mid-stream, and its ledger is rebuilt from the clients' volatile message
// logs. The check is against a crash-free run of the same cluster: as many
// transfers applied, every client in the same state. The server's own
// digest folds transfers in arrival order — which client is served first
// after a recovery is timing, not state — so it is left out.
func Example_bankServerCrash() {
	const perClient = 200
	bank := func() *rollrec.Cluster {
		return rollrec.NewCluster(rollrec.Config{
			N:               5,
			F:               2,
			Seed:            3,
			HW:              fastHardware(),
			Style:           rollrec.NonBlocking,
			App:             rollrec.ClientServer(perClient, 128, int64(500*time.Microsecond)),
			CheckpointEvery: 300 * time.Millisecond,
			StatePad:        8 << 10,
		})
	}
	applied := func(c *rollrec.Cluster) uint64 {
		return c.App(0).(interface{ Applied() uint64 }).Applied()
	}

	ref := bank()
	c := bank()
	c.Crash(250*time.Millisecond, 0)
	if !ref.RunUntilDone(100*time.Millisecond, time.Minute) || !c.RunUntilDone(100*time.Millisecond, time.Minute) {
		fmt.Println("did not settle")
		return
	}

	fmt.Println("server recovered:", c.Metrics(0).CurrentRecovery().Total() > 0)
	fmt.Println("transfers applied:", applied(c), "crash-free:", applied(ref))
	fmt.Println("client states equal the crash-free run's:", slices.Equal(c.Digests()[1:], ref.Digests()[1:]))
	fmt.Println("violations:", len(c.Check()))
	// Output:
	// server recovered: true
	// transfers applied: 800 crash-free: 800
	// client states equal the crash-free run's: true
	// violations: 0
}
