package cluster

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
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
	tl := &c.deliveries[2]
	tl.grow(99)
	*tl.at(99) = deliverInfo{msg: ids.MsgID{Sender: 0, SSN: 9999}, hash: 42}
	if !hasViolation(c.Check(), "orphan") {
		t.Fatal("checker missed a fabricated orphan")
	}
}

func TestCheckerDetectsContentMismatch(t *testing.T) {
	c := quietCluster(t)
	// Take an existing delivery and corrupt its recorded hash.
	tl := &c.deliveries[1]
	for rsn := uint64(0); rsn < tl.len(); rsn++ {
		if d := tl.at(rsn); d.delivered() {
			d.hash ^= 0xdead
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
	if n := c.deliveries[2].len(); n != 501 {
		t.Fatalf("stale tail beyond the reused rsn must be dropped: timeline ends at rsn %d, want 500", n-1)
	}
}

func TestOnLiveTruncatesTimelines(t *testing.T) {
	c := quietCluster(t)
	c.onSend(1, ids.MsgID{Sender: 1, SSN: 900}, 2, 1)
	c.onDeliver(1, ids.MsgID{Sender: 0, SSN: 900}, 0, 800, 1)
	c.onLive(1, 2, 100, 100) // recovery frontier far below the fake events
	if c.sends[1].len() > 101 {
		t.Fatal("sends beyond the recovery frontier must be dropped")
	}
	if c.deliveries[1].len() > 101 {
		t.Fatal("deliveries beyond the recovery frontier must be dropped")
	}
	if _, dup := indexEntries(t, &c.seen[1], &c.deliveries[1])[ids.MsgID{Sender: 0, SSN: 900}]; dup {
		t.Fatal("a dropped delivery must leave the duplicate index")
	}
}

// TestCheckerRefusesA33BitRSN: the duplicate index holds rsn+1 in 32 bits,
// so a delivery beyond it panics by name instead of aliasing an older rsn.
func TestCheckerRefusesA33BitRSN(t *testing.T) {
	c := quietCluster(t)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "32-bit duplicate index") {
			t.Fatalf("rsn 2^32 recovered %v, want the duplicate index's panic", r)
		}
	}()
	c.onDeliver(2, ids.MsgID{Sender: 0, SSN: 1}, 0, 1<<32, 7)
}

// TestCheckerFootprint: on a fanout n = 64 cell the checker holds at most
// 64 B per recorded delivery — a send record (16 B), a delivery record
// (24 B) and at least two 4-byte index slots, plus the chunks' and tables'
// slack. Slices grown by append and a map per receiver held ≈ 101 B by the
// same count.
func TestCheckerFootprint(t *testing.T) {
	c := New(Config{
		N: 64, F: 2, Seed: 1, Shards: 2, Fanout: 8, Style: recovery.NonBlocking,
		App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(10*time.Millisecond)),
		CheckpointEvery: 4 * time.Second, StatePad: 1 << 20,
	})
	c.Crash(300*time.Millisecond, 1)
	c.Run(6 * time.Second)
	mustCheck(t, c)
	st := c.CheckerStats()
	per := float64(st.TimelineBytes+st.IndexBytes) / float64(st.Deliveries)
	t.Logf("%+v: %.1f B per recorded delivery", st, per)
	if st.Deliveries < 10*64 || per > 64 {
		t.Fatalf("%+v: %.1f B per recorded delivery, want at most 64 over at least 640 records", st, per)
	}
}

// indexEntries reads x as a map, failing t unless the table is sound: the
// count matches the occupied slots, each entry's record holds its key, and a
// probe for the key finds the very slot the entry is in.
func indexEntries(t testing.TB, x *dupIndex, tl *history[deliverInfo]) map[ids.MsgID]ids.RSN {
	t.Helper()
	m := map[ids.MsgID]ids.RSN{}
	for i, v := range x.slots {
		if v == 0 {
			continue
		}
		if uint64(v-1) >= tl.len() {
			t.Fatalf("index slot %d names rsn %d beyond the timeline's %d records", i, v-1, tl.len())
		}
		id := tl.at(uint64(v - 1)).msg
		if at, _ := x.find(id, tl); at != i {
			t.Fatalf("index slot %d holds %v at rsn %d, but a probe for it finds slot %d", i, id, v-1, at)
		}
		m[id] = ids.RSN(v - 1)
	}
	if len(m) != x.n {
		t.Fatalf("index counts %d entries and holds %d", x.n, len(m))
	}
	return m
}

// modelChecker is the checker as it was before its timelines were chunked
// and its duplicate index packed: slices grown one record at a time, and a
// map per receiver. FuzzCheckerMatchesModel holds the checker to it.
type modelChecker struct {
	violations []string
	sends      [][]sendInfo            // per sender, indexed by ssn
	deliveries [][]deliverInfo         // per receiver, indexed by rsn
	seen       []map[ids.MsgID]ids.RSN // per receiver: fast duplicate check
}

func newModelChecker(n int) *modelChecker {
	c := &modelChecker{sends: make([][]sendInfo, n), deliveries: make([][]deliverInfo, n), seen: make([]map[ids.MsgID]ids.RSN, n)}
	for i := range c.seen {
		c.seen[i] = make(map[ids.MsgID]ids.RSN)
	}
	return c
}

// grown returns tl extended with zero records so that index i exists.
func grown[T any](tl []T, i uint64) []T {
	if i < uint64(len(tl)) {
		return tl
	}
	return append(tl, make([]T, i+1-uint64(len(tl)))...)
}

// upTo returns tl without the records beyond index i.
func upTo[T any](tl []T, i uint64) []T {
	if i+1 < uint64(len(tl)) {
		return tl[:i+1]
	}
	return tl
}

func (c *modelChecker) violate(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

func (c *modelChecker) onSend(self ids.ProcID, id ids.MsgID, to ids.ProcID, hash uint64) {
	k := uint64(id.SSN)
	tl := grown(c.sends[self], k)
	if old := tl[k]; old.sent && (old.to != to || old.hash != hash) {
		// Divergent regeneration: drop the stale tail beyond this point.
		tl = tl[:k+1]
	}
	tl[k] = sendInfo{to: to, sent: true, hash: hash}
	c.sends[self] = tl
}

func (c *modelChecker) onDeliver(self ids.ProcID, id ids.MsgID, from ids.ProcID, rsn ids.RSN, hash uint64) {
	k := uint64(rsn)
	tl := grown(c.deliveries[self], k)
	seen := c.seen[self]
	old := tl[k]
	if old.delivered() && old.msg != id {
		// A new execution reused this rsn: it and everything beyond belonged
		// to the rolled-back timeline.
		c.forget(self, tl[k:])
		tl = tl[:k+1]
	}
	if prevRSN, dup := seen[id]; dup && prevRSN != rsn {
		c.violate("exactly-once: %v delivered %v at rsn %d and again at rsn %d", self, id, prevRSN, rsn)
	}
	if old.msg == id && old.hash != hash {
		c.violate("replay fidelity: %v re-delivered %v at rsn %d with different content", self, id, rsn)
	}
	tl[k] = deliverInfo{msg: id, hash: hash}
	c.deliveries[self] = tl
	seen[id] = rsn
}

// forget removes rolled-back deliveries from self's duplicate index.
func (c *modelChecker) forget(self ids.ProcID, stale []deliverInfo) {
	for _, d := range stale {
		if d.delivered() {
			delete(c.seen[self], d.msg)
		}
	}
}

func (c *modelChecker) onLive(self ids.ProcID, inc ids.Incarnation, ssn ids.SSN, rsn ids.RSN) {
	c.sends[self] = upTo(c.sends[self], uint64(ssn))
	kept := upTo(c.deliveries[self], uint64(rsn))
	c.forget(self, c.deliveries[self][len(kept):])
	c.deliveries[self] = kept
}

// check is Cluster.Check over the model's violations and timelines, and
// cl's processes.
func (c *modelChecker) check(cl *Cluster) []error {
	var errs []error
	for _, v := range c.violations {
		errs = append(errs, fmt.Errorf("%s", v))
	}
	errs = append(errs, cl.liveness()...)
	for recv := 0; recv < cl.cfg.N; recv++ {
		for rsn, d := range c.deliveries[recv] {
			if !d.delivered() {
				continue
			}
			s := d.msg.Sender
			var rec sendInfo
			if k := uint64(d.msg.SSN); k < uint64(len(c.sends[s])) {
				rec = c.sends[s][k]
			}
			if !rec.sent {
				errs = append(errs, fmt.Errorf(
					"orphan: %v delivered %v (rsn %d) but %v's surviving execution never sent it",
					ids.ProcID(recv), d.msg, rsn, s))
				continue
			}
			if rec.to != ids.ProcID(recv) || rec.hash != d.hash {
				errs = append(errs, fmt.Errorf(
					"orphan: %v delivered %v (rsn %d) but %v's surviving send differs (to %v)",
					ids.ProcID(recv), d.msg, rsn, s, rec.to))
			}
			if p := cl.Proc(s); p != nil && d.msg.SSN > p.SSN() {
				errs = append(errs, fmt.Errorf(
					"orphan: %v delivered %v but %v's execution only reached ssn %d",
					ids.ProcID(recv), d.msg, s, p.SSN()))
			}
		}
	}
	if cl.cfg.Style == recovery.NonBlocking {
		for i := 0; i < cl.cfg.N; i++ {
			if b := cl.Metrics(ids.ProcID(i)).BlockedTotal(); b != 0 {
				errs = append(errs, fmt.Errorf(
					"intrusion: nonblocking style blocked %v for %v", ids.ProcID(i), b))
			}
		}
	}
	return errs
}

// A fuzzed checker run is a string of 6-byte hook calls: the kind, the
// process it runs on, and four arguments, each byte reduced to its range.
const (
	opSend = iota
	opDeliver
	opLive
	opKinds
)

// opCounter maps a byte to an ssn or rsn: b&7 + 1, or with the top bit set
// 60 + (b&0x7f)%12, across the boundary of the first whole timeline chunk.
func opCounter(b byte) uint64 {
	if b&0x80 != 0 {
		return 60 + uint64(b&0x7f)%12
	}
	return 1 + uint64(b&7)
}

// op encodes one hook call for a seed, #x standing for opCounter(x): a send
// from self of ssn #a to b with hash c; a delivery at self of sender a's ssn
// #b at rsn #c with hash d; a live frontier at self at ssn #a-1, rsn #b-1.
func op(kind, self, a, b, c, d byte) []byte { return []byte{kind, self, a, b, c, d} }

// checkerCorners are the seeds that reach the checker's corners on purpose.
var checkerCorners = [][]byte{
	// A re-delivery at the same rsn, with the same and then other content.
	slices.Concat(op(opSend, 0, 1, 1, 0, 0), op(opDeliver, 1, 0, 1, 1, 0), op(opDeliver, 1, 0, 1, 1, 0), op(opDeliver, 1, 0, 1, 1, 1)),
	// A divergent regeneration: ssn 1 resent elsewhere drops ssn 2 and 3,
	// which orphans their deliveries.
	slices.Concat(op(opSend, 0, 1, 1, 0, 0), op(opSend, 0, 2, 1, 0, 0), op(opSend, 0, 3, 2, 0, 0),
		op(opDeliver, 1, 0, 2, 1, 0), op(opDeliver, 2, 0, 3, 1, 0), op(opSend, 0, 1, 2, 0, 0)),
	// An onLive cut below deliveries that crossed the first whole chunk, then
	// the same ids re-delivered at the rsns they had and the timeline regrown.
	slices.Concat(op(opDeliver, 1, 0, 1, 1, 0), op(opDeliver, 1, 2, 1, 2, 0), op(opDeliver, 1, 0, 2, 0x80|3, 0),
		op(opDeliver, 1, 0, 3, 0x80|5, 0), op(opLive, 1, 1, 2, 0, 0), op(opDeliver, 1, 2, 1, 2, 0),
		op(opDeliver, 1, 0, 3, 0x80|4, 0), op(opDeliver, 1, 0, 2, 0x80|3, 1)),
	// A double delivery at two rsns.
	slices.Concat(op(opDeliver, 2, 1, 1, 1, 0), op(opDeliver, 2, 1, 1, 2, 0), op(opDeliver, 2, 1, 1, 3, 0)),
	// A duplicated id whose stale copy is forgotten while the older copy
	// survives: the index forgets the id, so its next delivery is no
	// duplicate, as with the map.
	slices.Concat(op(opDeliver, 0, 1, 1, 1, 0), op(opDeliver, 0, 2, 1, 2, 0), op(opDeliver, 0, 1, 1, 3, 0),
		op(opLive, 0, 1, 3, 0, 0), op(opDeliver, 0, 1, 1, 4, 0), op(opDeliver, 0, 2, 2, 2, 0)),
}

// randomOps is a seeded run of steps hook calls for the seed corpus.
func randomOps(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 6*steps)
	rng.Read(ops)
	for i := 0; i < len(ops); i += 6 {
		// Deliveries and sends outnumber frontiers four to one.
		ops[i] = []byte{opSend, opSend, opDeliver, opDeliver, opDeliver, opDeliver, opDeliver, opSend, opLive}[ops[i]%9]
	}
	return ops
}

// FuzzCheckerMatchesModel drives the checker and the model with the same
// hook calls on a 3-process cluster and wants, after every call, the same
// violations, the same timelines record by record, the same index and the
// same Check.
func FuzzCheckerMatchesModel(f *testing.F) {
	for _, ops := range checkerCorners {
		f.Add(ops)
	}
	for seed := range int64(48) {
		f.Add(randomOps(seed, 150))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 3
		c := New(Config{N: n, F: 2, Seed: 2, HW: fastHW(), App: workload.NewTokenRing(10, 0, 0), CheckpointEvery: time.Second})
		c.resetChecker(n)
		c.violations = c.violations[:0]
		m := newModelChecker(n)
		for step := 0; len(ops) >= 6; step, ops = step+1, ops[6:] {
			self := ids.ProcID(ops[1] % n)
			switch ops[0] % opKinds {
			case opSend:
				id, to, hash := ids.MsgID{Sender: self, SSN: ids.SSN(opCounter(ops[2]))}, ids.ProcID(ops[3]%n), uint64(ops[4]%2)
				c.onSend(self, id, to, hash)
				m.onSend(self, id, to, hash)
			case opDeliver:
				from := ids.ProcID(ops[2] % n)
				id, rsn, hash := ids.MsgID{Sender: from, SSN: ids.SSN(opCounter(ops[3]))}, ids.RSN(opCounter(ops[4])), uint64(ops[5]%2)
				c.onDeliver(self, id, from, rsn, hash)
				m.onDeliver(self, id, from, rsn, hash)
			case opLive:
				ssn, rsn := ids.SSN(opCounter(ops[2])-1), ids.RSN(opCounter(ops[3])-1)
				c.onLive(self, 2, ssn, rsn)
				m.onLive(self, 2, ssn, rsn)
			}
			if !slices.Equal(c.violations, m.violations) {
				t.Fatalf("step %d: violations\n %q\nwant\n %q", step, c.violations, m.violations)
			}
			for p := range n {
				if got := records(&c.sends[p]); !slices.Equal(got, m.sends[p]) {
					t.Fatalf("step %d: p%d's sends %+v, want %+v", step, p, got, m.sends[p])
				}
				if got := records(&c.deliveries[p]); !slices.Equal(got, m.deliveries[p]) {
					t.Fatalf("step %d: p%d's deliveries %+v, want %+v", step, p, got, m.deliveries[p])
				}
				if got := indexEntries(t, &c.seen[p], &c.deliveries[p]); !maps.Equal(got, m.seen[p]) {
					t.Fatalf("step %d: p%d's index %v, want %v", step, p, got, m.seen[p])
				}
			}
			got, want := fmt.Sprint(c.Check()), fmt.Sprint(m.check(c))
			if got != want {
				t.Fatalf("step %d: Check\n %s\nwant\n %s", step, got, want)
			}
		}
	})
}

// records returns tl's records as a slice.
func records[T any](tl *history[T]) []T {
	out := make([]T, tl.len())
	for i := range out {
		out[i] = *tl.at(uint64(i))
	}
	return out
}
