package costmodel

import (
	"time"

	"rollrec/internal/node"
	"rollrec/internal/recovery"
)

// Inputs are the scenario parameters of a prediction.
type Inputs struct {
	// HW is the hardware profile (the technology terms).
	HW node.Hardware
	// N is the cluster size.
	N int
	// Style is the recovery algorithm variant under analysis.
	Style recovery.Style
	// CheckpointBytes is the stable-storage size of one checkpoint
	// (process image plus protocol state).
	CheckpointBytes int
	// DepinfoBytes is the typical size of one live process's determinant
	// log when serialized into a depinfo reply.
	DepinfoBytes int
	// ReplayMsgs is the expected number of deliveries to re-execute
	// (roughly the per-process delivery rate times half the checkpoint
	// interval).
	ReplayMsgs int
	// ReplayMsgBytes is the typical application frame size.
	ReplayMsgBytes int
	// WorkPerMsg is the application compute per delivery.
	WorkPerMsg time.Duration
}

// Prediction is the model's output for one failure scenario.
type Prediction struct {
	// DetectRestart is the crash-to-process-image-up term: the watchdog's
	// timeout plus the restart cost. Pure failure-detection technology.
	DetectRestart time.Duration
	// Restore is the stable-storage term: reading the incarnation record
	// and the checkpoint.
	Restore time.Duration
	// Gather is the communication term — the only place message counts
	// appear. For the non-blocking algorithm it is also an upper bound on
	// nothing at all: lives are unaffected.
	Gather time.Duration
	// Replay is the re-execution term.
	Replay time.Duration
	// LiveBlocked is the per-live-process intrusion: zero for the
	// non-blocking algorithm, about the gather tail for the blocking
	// baseline, plus a synchronous storage write for Manetho mode.
	LiveBlocked time.Duration
	// CtlMsgs is the traditional metric: recovery control messages for one
	// single-failure recovery.
	CtlMsgs int
}

// Total returns the predicted crash-to-live latency.
func (p Prediction) Total() time.Duration {
	return p.DetectRestart + p.Restore + p.Gather + p.Replay
}

// frame sizes for the small control messages (announce, requests,
// completion); measured envelope overhead is ~30–60 bytes.
const ctlFrameBytes = 48

// SingleFailure predicts the cost of recovering one crashed process while
// everyone else stays up.
func SingleFailure(in Inputs) Prediction {
	hw := in.HW
	lives := in.N - 1

	var p Prediction
	p.DetectRestart = hw.WatchdogDetect + hw.RestartDelay
	// Two reads (incarnation record, checkpoint) + one small write (new
	// incarnation record) before the process can announce.
	p.Restore = hw.Disk.ReadTime(16) + hw.Disk.ReadTime(in.CheckpointBytes) +
		hw.Disk.WriteTime(16)

	// Gather: the leader serializes (n-1) announces and (n-1) requests,
	// the last request flies one way, a live process turns it around, the
	// reply (depinfo) flies back, and the leader absorbs (n-1) replies.
	send := func(bytes int) time.Duration {
		return hw.SendCost(bytes) + hw.Net.TransmitTime(bytes)
	}
	oneWay := hw.Net.Latency
	leaderOut := time.Duration(2*lives) * send(ctlFrameBytes) // announces + requests
	liveTurn := hw.SendCost(ctlFrameBytes) + send(in.DepinfoBytes)
	if in.Style == recovery.Manetho {
		liveTurn += hw.Disk.WriteTime(in.DepinfoBytes)
	}
	leaderIn := time.Duration(lives) * send(in.DepinfoBytes)
	complete := send(ctlFrameBytes)
	p.Gather = leaderOut + oneWay + liveTurn + oneWay + leaderIn + complete

	// Replay: request retransmissions, then re-execute each delivery
	// (handling cost on both ends plus the application's work).
	perMsg := 2*hw.SendCost(in.ReplayMsgBytes) +
		hw.Net.TransmitTime(in.ReplayMsgBytes) + in.WorkPerMsg
	p.Replay = time.Duration(lives)*send(ctlFrameBytes) + oneWay +
		time.Duration(in.ReplayMsgs)*perMsg

	// Intrusion: what each live process cannot do while the protocol holds
	// it. The blocking baseline holds lives from the depinfo request to the
	// completion broadcast — roughly the reply legs plus the leader's
	// absorption of everyone's replies.
	switch in.Style {
	case recovery.NonBlocking:
		p.LiveBlocked = 0
	case recovery.Blocking:
		p.LiveBlocked = send(in.DepinfoBytes) + leaderIn + oneWay + complete
	case recovery.Manetho:
		p.LiveBlocked = hw.Disk.WriteTime(in.DepinfoBytes) +
			send(in.DepinfoBytes) + leaderIn + oneWay + complete
	}

	// The traditional metric: announces, requests, replies, completion,
	// data distribution, replay requests, recovered broadcast.
	p.CtlMsgs = lives /*announce*/ + lives /*dep req*/ + lives /*dep reply*/ +
		lives /*complete*/ + lives /*replay req*/ + lives /*recovered*/
	return p
}

// OverlappingFailure predicts the paper's second experiment: a second
// process crashes while the first is mid-gather. The gather restarts and
// stalls for the second victim's detection and restore — which is why both
// the first victim's recovery and (under the blocking baseline) every live
// process's stall inflate to seconds.
type OverlapPrediction struct {
	First       Prediction    // the original victim
	Second      Prediction    // the process that died mid-gather
	GatherStall time.Duration // how long the restarted gather waits
}

// Overlapping computes the two-failure predictions.
func Overlapping(in Inputs) OverlapPrediction {
	base := SingleFailure(in)
	second := SingleFailure(in)

	// The leader notices the second victim via heartbeat silence, then
	// waits for it to restart, restore, and announce.
	stall := in.HW.SuspectAfter + second.DetectRestart + second.Restore
	if detectFirst := in.HW.SuspectAfter; detectFirst > second.DetectRestart+second.Restore {
		// Detection of silence and the watchdog run concurrently; the
		// stall is bounded below by whichever finishes last.
		stall = detectFirst + in.HW.Disk.ReadTime(in.CheckpointBytes)
	}

	first := base
	first.Gather += stall

	out := OverlapPrediction{First: first, Second: second, GatherStall: stall}
	return out
}
