package fbl

import (
	"math/rand"
	"slices"
	"testing"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
)

// perIDRule is the output-commit bookkeeping as it stood before outputs
// waited on a count: every output registers with each pending id, and a
// check retires an id's waiters when the id is stable or gone at the check.
// It is the reference outBook must agree with.
type perIDRule struct {
	pending []*perIDWait
	waiters map[ids.MsgID][]*perIDWait
	settled []ids.MsgID
}

type perIDWait struct {
	seq       uint64
	remaining int
}

func (r *perIDRule) request(seq uint64, dets *det.Log, live bool) bool {
	w := &perIDWait{seq: seq}
	dets.PendingIDs(func(id ids.MsgID) {
		w.remaining++
		r.waiters[id] = append(r.waiters[id], w)
	})
	if w.remaining == 0 && live {
		return true
	}
	r.pending = append(r.pending, w)
	return false
}

func (r *perIDRule) noteSettled(id ids.MsgID) {
	if len(r.waiters) > 0 {
		r.settled = append(r.settled, id)
	}
}

func (r *perIDRule) check(dets *det.Log, cpOutSeq uint64, live bool, commit func(uint64)) {
	for _, id := range r.settled {
		if ws, ok := r.waiters[id]; ok && dets.StableOrGone(id) {
			delete(r.waiters, id)
			for _, w := range ws {
				w.remaining--
			}
		}
	}
	r.settled = r.settled[:0]
	if len(r.pending) == 0 || !live {
		return
	}
	kept := r.pending[:0]
	for _, w := range r.pending {
		if w.remaining <= 0 || w.seq <= cpOutSeq {
			commit(w.seq)
		} else {
			kept = append(kept, w)
		}
	}
	r.pending = kept
}

// outRig drives an outBook and the per-id reference side by side on one
// real determinant log, as a process does: the log's OnSettled feeds both.
type outRig struct {
	dets      *det.Log
	book      outBook
	ref       perIDRule
	outSeq    uint64
	cpOutSeq  uint64
	got, refs []uint64 // committed seqs, in commit order
}

func newOutRig(cfg det.Config) *outRig {
	g := &outRig{dets: det.NewLog(cfg)}
	g.ref.waiters = map[ids.MsgID][]*perIDWait{}
	g.dets.OnSettled(func(id ids.MsgID, born int) {
		g.book.settled(id, born, g.outSeq)
		g.ref.noteSettled(id)
	})
	return g
}

func (g *outRig) request(live bool) {
	g.outSeq++
	if g.book.request(g.outSeq, g.dets, live) {
		g.got = append(g.got, g.outSeq)
	}
	if g.ref.request(g.outSeq, g.dets, live) {
		g.refs = append(g.refs, g.outSeq)
	}
}

func (g *outRig) check(live bool) {
	g.book.check(g.dets, g.cpOutSeq, live, func(seq uint64) { g.got = append(g.got, seq) })
	g.ref.check(g.dets, g.cpOutSeq, live, func(seq uint64) { g.refs = append(g.refs, seq) })
}

// TestOutputRuleMatchesPerIDRule: over random runs of everything that moves
// the rule — entries recorded pending (or already stable), holders growing
// to stability, receivers collecting pending and stable entries, collected
// ids re-learned before the next check, outputs requested live and not,
// checkpoint coverage rising, checks live and not — the count-based
// bookkeeping commits exactly what the per-id rule commits, in the same
// order, and leaves the same outputs waiting with the same counts.
func TestOutputRuleMatchesPerIDRule(t *testing.T) {
	seeds := int64(600)
	if testing.Short() {
		seeds = 150
	}
	var carried, committed int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := det.Config{N: 4 + rng.Intn(5), F: 1 + rng.Intn(2)}
		g := newOutRig(cfg)
		// A message's determinant is a fixed function of its id, so a
		// re-record after GC never conflicts. Few ids, so that they are
		// collected and re-learned often.
		detOf := func(sender, ssn int) det.Determinant {
			return det.Determinant{
				Msg:      ids.MsgID{Sender: ids.ProcID(sender), SSN: ids.SSN(ssn)},
				Receiver: ids.ProcID((sender + ssn) % cfg.N),
				RSN:      ids.RSN(ssn),
			}
		}
		live := true
		for step := 0; step < 300; step++ {
			sender, ssn := rng.Intn(3), 1+rng.Intn(12)
			d := detOf(sender, ssn)
			switch op := rng.Intn(20); {
			case op < 5: // learn an entry: pending, or (one in five) already stable
				holders := []int{int(d.Receiver)}
				if rng.Intn(5) == 0 {
					for len(holders) <= cfg.F {
						holders = append(holders, rng.Intn(cfg.N))
						slices.Sort(holders)
						holders = slices.Compact(holders)
					}
				}
				if err := g.dets.Record(det.Entry{Det: d, Holders: bitset.FromSlice(holders)}); err != nil {
					t.Fatal(err)
				}
			case op < 8:
				g.dets.AddHolder(d.Msg, ids.ProcID(rng.Intn(cfg.N)))
			case op < 10:
				g.dets.GCReceiver(ids.ProcID(rng.Intn(cfg.N)), ids.RSN(rng.Intn(13)))
			case op < 11:
				live = !live
			case op < 15:
				g.request(live)
			case op < 16:
				if g.outSeq > g.cpOutSeq {
					g.cpOutSeq += uint64(1 + rng.Int63n(int64(g.outSeq-g.cpOutSeq)))
				}
			default:
				g.check(live)
				carried += len(g.book.carried)
				if !slices.Equal(g.got, g.refs) {
					t.Fatalf("seed %d step %d: committed %v, the per-id rule %v", seed, step, g.got, g.refs)
				}
				if len(g.book.waiting) != len(g.ref.pending) {
					t.Fatalf("seed %d step %d: %d outputs waiting, the per-id rule %d", seed, step, len(g.book.waiting), len(g.ref.pending))
				}
				for i, w := range g.book.waiting {
					if r := g.ref.pending[i]; w.seq != r.seq || w.remaining != r.remaining {
						t.Fatalf("seed %d step %d: waiting output %d/%d, the per-id rule %d/%d", seed, step, w.seq, w.remaining, r.seq, r.remaining)
					}
				}
			}
		}
		committed += len(g.got)
	}
	if carried == 0 || committed == 0 {
		t.Fatalf("the runs never carried a span (%d) or committed an output (%d): the test drives nothing", carried, committed)
	}
}

// TestOutputWaitsOnTheRelearnedCopy is the case the rule judges at check
// time for: w1 counts e; our checkpoint collects e; w2 is requested with e
// gone; a peer's stale piggyback brings e back, pending; w3 counts it. At the
// next check w1 and w3 still wait on e — on the new copy — and w2 does not.
// Only e's next passing releases the other two.
func TestOutputWaitsOnTheRelearnedCopy(t *testing.T) {
	cfg := det.Config{N: 4, F: 1}
	e := det.Entry{
		Det:     det.Determinant{Msg: ids.MsgID{Sender: 1, SSN: 1}, Receiver: 0, RSN: 1},
		Holders: bitset.FromSlice([]int{0}),
	}
	g := newOutRig(cfg)
	if err := g.dets.Record(e); err != nil {
		t.Fatal(err)
	}
	g.request(true) // w1
	g.dets.GCReceiver(0, 1)
	g.request(false) // w2: nothing pending, but not live, so it waits for a check
	if err := g.dets.Record(e); err != nil {
		t.Fatal(err)
	}
	g.request(true) // w3
	g.check(true)
	if !slices.Equal(g.got, []uint64{2}) || !slices.Equal(g.refs, []uint64{2}) {
		t.Fatalf("after e came back: committed %v (per-id rule %v), want [2]: w1 and w3 wait on e, w2 does not", g.got, g.refs)
	}
	if len(g.book.waiting) != 2 || g.book.waiting[0].remaining != 1 || g.book.waiting[1].remaining != 1 {
		t.Fatalf("waiting %+v, want w1 and w3 each counting e", g.book.waiting)
	}
	g.dets.AddHolder(e.Det.Msg, 2)
	g.check(true)
	if !slices.Equal(g.got, []uint64{2, 1, 3}) || !slices.Equal(g.refs, g.got) {
		t.Fatalf("after e became stable: committed %v (per-id rule %v), want [2 1 3]", g.got, g.refs)
	}
}

// nopSink is an output.Sink that allocates nothing: it accepts every
// request and counts commits.
type nopSink struct{ committed int }

func (*nopSink) Requested(ids.ProcID, uint64, int64, []byte) bool { return true }
func (s *nopSink) Committed(ids.ProcID, uint64, int64)            { s.committed++ }
func (*nopSink) CommitUpTo(ids.ProcID, uint64, int64)             {}

// TestOutputRequestAllocs: with 64 determinants pending, an output request
// and the check that releases it allocate nothing in steady state — the
// request is a value appended to a list that stopped growing, and the
// entries leaving the pending set are noted in a list that did too. Each
// round requests one output, collects the 64 entries it counted, checks
// (which releases it) and records them again, so requests and releases
// balance.
func TestOutputRequestAllocs(t *testing.T) {
	const k = 64
	sink := &nopSink{}
	kern := idleCluster(t, 4, 0, sink)
	p := kern.ProcOf(0).(*Process)
	entries := make([]det.Entry, k)
	for i := range entries {
		entries[i] = pendingEntry(i)
	}
	record := func() {
		if err := p.dets.MergeEntries(entries); err != nil {
			t.Fatal(err)
		}
	}
	record()
	round := func() {
		appCtx{p}.Output(chainPayload)
		p.dets.GCReceiver(2, ^ids.RSN(0))
		p.dets.GCReceiver(3, ^ids.RSN(0))
		p.checkOutputs()
		record()
	}
	round()
	before := sink.committed
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("an output request and its release with %d determinants pending allocate %.1f times, want 0", k, got)
	}
	if sink.committed-before != 101 || len(p.outs.waiting) != 0 {
		t.Fatalf("setup: %d outputs released over 101 rounds, %d left waiting; want every one released", sink.committed-before, len(p.outs.waiting))
	}
}
