// Package wire defines the protocol message vocabulary (the envelope) and a
// hand-written binary codec for it.
//
// The simulator transmits encoded bytes rather than shared pointers: every
// delivery round-trips through the codec, which guarantees processes share
// no mutable state and gives the network model exact message sizes — the
// quantity the paper's "communication overhead" metric counts. That rests
// on the byte copy, not on who owns the structs around it: Encode copies
// all an envelope references into the frame (a sender may reuse one envelope
// for a fan-out, or hand one to Multicast; a DetList is encoded already or
// reads the sender's log in place), nothing writes a frame until its delivery
// returns, and decoding reads the payload in place — a view of the frame —
// and copies the rest out, the determinants into the Decoder's buffers. The
// simulator decodes every frame into one struct through one Decoder and
// recycles a unicast frame once Deliver returns, so a decoded payload is
// valid until then; Envelope.Keep is how a handler holds on to a frame. A
// payload's padding is a length on the wire as in storage: Size counts it,
// the frame carries it as a count (storage.Image.Pad), and no one allocates
// the zeros.
package wire

import (
	"slices"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/storage"
)

// Kind discriminates envelope types.
type Kind uint8

// Envelope kinds. The first group is the failure-free protocol (§2); the
// second group is the recovery algorithm (§3.4).
const (
	// KindApp carries an application payload plus the causal piggyback of
	// not-yet-stable determinants.
	KindApp Kind = iota + 1
	// KindCheckpointNotice announces that the sender checkpointed: peers can
	// garbage-collect determinants and sender-log entries the checkpoint
	// covers.
	KindCheckpointNotice
	// KindDetsToStorage streams determinants to the stable-storage
	// pseudo-process (f = n instance only).
	KindDetsToStorage
	// KindStorageAck acknowledges determinants durably held by storage.
	KindStorageAck
	// KindHeartbeat feeds the failure detector.
	KindHeartbeat

	// KindRecoveryAnnounce is broadcast by a process entering recovery: it
	// carries the new incarnation and the recovery ordinal (§3.2 "ord").
	KindRecoveryAnnounce
	// KindIncRequest is the leader's step-4 query to a recovering process.
	KindIncRequest
	// KindIncReply answers with the recovering process's incarnation.
	KindIncReply
	// KindDepRequest is the leader's step-5 query to a live process; it
	// carries the leader's incvector so the live process starts rejecting
	// stale messages before replying.
	KindDepRequest
	// KindDepReply returns a live process's determinant log: all of it, or
	// the part a scoped request's Members will replay.
	KindDepReply
	// KindRecoveryData is the leader's step-6 delivery of the aggregated
	// depinfo to each recovering process.
	KindRecoveryData
	// KindRecoveryComplete tells live processes the gather finished; the
	// blocking baseline unblocks on it.
	KindRecoveryComplete
	// KindReplayRequest asks a sender to retransmit logged messages by id.
	KindReplayRequest
	// KindRecovered is broadcast by a process that finished replaying.
	KindRecovered

	// Coordinated-checkpointing comparator (Chandy–Lamport snapshots with
	// global rollback; see internal/coord).
	//
	// KindMarker is the snapshot marker flooding every channel.
	KindMarker
	// KindSnapState carries a participant's local snapshot acknowledgment
	// to the initiator.
	KindSnapState
	// KindSnapCommit announces that a global snapshot is complete and is
	// now the recovery line.
	KindSnapCommit
	// KindRollback orders every process back to the committed recovery
	// line after a failure.
	KindRollback

	kindMax
)

// KindCount is the size any array indexed by Kind must have (kinds start
// at 1; index 0 is unused). The metrics package sizes its per-kind counter
// arrays with it, so adding a kind above automatically widens them.
const KindCount = int(kindMax)

// String names the kind for traces.
func (k Kind) String() string {
	names := [...]string{
		KindApp:              "app",
		KindCheckpointNotice: "cp-notice",
		KindDetsToStorage:    "dets-to-storage",
		KindStorageAck:       "storage-ack",
		KindHeartbeat:        "heartbeat",
		KindRecoveryAnnounce: "rec-announce",
		KindIncRequest:       "inc-request",
		KindIncReply:         "inc-reply",
		KindDepRequest:       "dep-request",
		KindDepReply:         "dep-reply",
		KindRecoveryData:     "rec-data",
		KindRecoveryComplete: "rec-complete",
		KindReplayRequest:    "replay-request",
		KindRecovered:        "recovered",
		KindMarker:           "cl-marker",
		KindSnapState:        "cl-snap-state",
		KindSnapCommit:       "cl-snap-commit",
		KindRollback:         "cl-rollback",
	}
	if int(k) < len(names) && names[k] != "" {
		return names[k]
	}
	return "kind?"
}

// Envelope is the single on-wire message type; unused fields stay at their
// zero values and cost two bytes of presence bitmap.
type Envelope struct {
	Kind Kind
	From ids.ProcID
	// To is set by recovery broadcasts only and never read by a handler: the
	// runtime routes by Send's argument. It stays because it is in every
	// frame's bytes.
	To      ids.ProcID
	FromInc ids.Incarnation

	// Application path.
	SSN  ids.SSN // sender-global send sequence number (KindApp)
	Dseq uint64  // per-destination sequence for duplicate suppression;
	// on KindReplayRequest it is the requester's delivered watermark instead
	// Payload is the application bytes (KindApp), of which Pad are modelled:
	// the payload means Payload, then Pad zeros (PayloadImage).
	Payload []byte
	Dets    []det.Entry // piggyback, dep replies, recovery data, storage stream
	// DetList is the encode-only alternative to Dets: the sender's list in
	// wire form, or a view of its log read in place, written into the frame
	// byte for byte as Dets holding the same entries would be. Send consumes
	// it at call time; an envelope sets at most one of the two, and a decoded
	// envelope never carries a list. It is a pointer so the envelope stays in
	// its allocation size class (TestEnvelopeSizeClass).
	DetList *DetList

	// Checkpoint notices.
	CPRsn         ids.RSN   // receiver-order watermark covered by the checkpoint
	SSNWatermarks []ids.SSN // per-sender delivered-SSN watermarks
	// CPDseq piggybacks the sender's checkpoint-time delivered watermark
	// for the destination on KindApp frames (fanout mode): the receiver can
	// garbage-collect sender-log entries the watermark covers without
	// waiting for a direct checkpoint notice.
	CPDseq uint64

	// Recovery protocol.
	Ord   ids.Ordinal // recovery ordinal of the round
	Round uint32      // gather attempt counter within one ordinal
	// Pad is the count of zeros ending the payload (see Payload). It sits
	// here, in the word Round leaves free, so the envelope stays in its size
	// class (TestEnvelopeSizeClass).
	Pad    uint32
	IncVec []ids.Incarnation // leader's incarnation vector
	MsgIDs []ids.MsgID       // replay requests, storage acks
	// Members lists the recovering processes a KindDepRequest gathers for;
	// live repliers and the storage node scope their determinant logs to
	// these receivers instead of shipping the whole log. Empty means
	// unscoped (the pre-fanout behavior).
	Members []ids.ProcID
}

// PayloadImage returns the payload with its padding: the one value a
// payload is from workload.Ctx.Send to App.Handle.
func (e *Envelope) PayloadImage() storage.Image {
	return storage.Image{Data: e.Payload, Pad: int(e.Pad)}
}

// Keep returns what a Deliver handler stores when a frame must outlive the
// call: a copy of the struct, which the runtime decodes the next frame into,
// of Dets, SSNWatermarks and IncVec, which live in the runtime's Decoder,
// and of Payload, a view of a frame the runtime reuses once Deliver returns.
// The other slices are allocated per frame and shared.
func (e *Envelope) Keep() *Envelope {
	c := *e
	c.Dets = cloneDets(e.Dets)
	c.SSNWatermarks = slices.Clone(e.SSNWatermarks)
	c.IncVec = slices.Clone(e.IncVec)
	if !TestingKeepSharesPayload {
		c.Payload = slices.Clone(e.Payload)
	}
	return &c
}

func cloneDets(in []det.Entry) []det.Entry {
	if in == nil {
		return nil
	}
	out := make([]det.Entry, len(in))
	for i := range in {
		out[i] = in[i].Clone()
	}
	return out
}

// Clone returns a deep copy of the envelope, for test fakes that capture
// what a sender goes on to reuse; Send itself serializes at call time. A
// DetList is decoded into Dets: the copy outlives the list's next refill and
// the log's next change.
func (e *Envelope) Clone() *Envelope {
	c := *e
	if e.Payload != nil {
		c.Payload = append([]byte(nil), e.Payload...)
	}
	c.Dets = cloneDets(e.Dets)
	if l := e.DetList; l != nil {
		var d Decoder
		for r, i := NewReader(l.buf), 0; i < l.n; i++ {
			c.Dets = append(c.Dets, d.decodeEntry(r))
		}
		c.Dets, c.DetList = append(c.Dets, l.view.Collect()...), nil
	}
	if e.SSNWatermarks != nil {
		c.SSNWatermarks = append([]ids.SSN(nil), e.SSNWatermarks...)
	}
	if e.IncVec != nil {
		c.IncVec = append([]ids.Incarnation(nil), e.IncVec...)
	}
	if e.MsgIDs != nil {
		c.MsgIDs = append([]ids.MsgID(nil), e.MsgIDs...)
	}
	if e.Members != nil {
		c.Members = append([]ids.ProcID(nil), e.Members...)
	}
	return &c
}
