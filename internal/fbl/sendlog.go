package fbl

import "rollrec/internal/ids"

type logRec struct {
	ssn     ids.SSN
	payload []byte
}

// sendWindow is the volatile send log for one destination (sender-based
// message logging): the records with dseq base, base+1, … in order. A
// destination's dseqs are assigned +1 per send and dropped only as a prefix
// (the destination checkpointed past them), so the log is a contiguous
// window: append and prune are O(1) amortized, iteration is in dseq order
// with no sort, and a dseq is an index. A nil window is an empty log that
// cannot be appended to: a process allocates one per destination it actually
// sends to (Process.sendLogFor), not n of them at boot.
type sendWindow struct {
	base uint64   // dseq of recs[head]; meaningless while the window is empty
	recs []logRec // live records are recs[head:]
	head int      // pruned records not yet compacted away
}

func (w *sendWindow) len() int {
	if w == nil {
		return 0
	}
	return len(w.recs) - w.head
}

// live returns the logged records in dseq order; record i has dseq base+i.
func (w *sendWindow) live() []logRec {
	if w == nil {
		return nil
	}
	return w.recs[w.head:]
}

// append logs the record for dseq, which must follow the last one logged
// (an empty window starts wherever it is told to).
func (w *sendWindow) append(dseq uint64, rec logRec) {
	switch {
	case w.len() == 0: // prune left nothing behind
		w.base = dseq
	case dseq != w.base+uint64(w.len()):
		panic("fbl: send log is not contiguous")
	}
	w.recs = append(w.recs, rec)
}

// after returns the records with dseq beyond start and the dseq of the
// first of them.
func (w *sendWindow) after(start uint64) ([]logRec, uint64) {
	if w.len() == 0 {
		return nil, 0
	}
	if start < w.base {
		return w.live(), w.base
	}
	skip := min(start-w.base, uint64(w.len()-1)) + 1
	return w.live()[skip:], w.base + skip
}

// prune drops the records with dseq <= wm. The dropped prefix is cleared so
// its payloads can be collected, and compacted away once it is as long as
// what is left, so a window that keeps being appended to and pruned reuses
// its array instead of growing a new one.
func (w *sendWindow) prune(wm uint64) {
	if w.len() == 0 || wm < w.base {
		return
	}
	k := int(min(wm-w.base, uint64(w.len()-1))) + 1
	clear(w.recs[w.head : w.head+k])
	w.base += uint64(k)
	w.head += k
	if w.head >= w.len() {
		n := copy(w.recs, w.live())
		clear(w.recs[w.head:])
		w.recs, w.head = w.recs[:n], 0
	}
}
