package failure

import (
	"reflect"
	"testing"
	"time"

	"rollrec/internal/ids"
)

const sec = int64(time.Second)

func TestSuspectAfterSilence(t *testing.T) {
	var suspects []ids.ProcID
	d := NewDetector(0, 3, 3*time.Second, 0, func(p ids.ProcID) { suspects = append(suspects, p) })
	d.Heard(1, 1*sec)
	d.Heard(2, 1*sec)
	d.Tick(3 * sec)
	if len(suspects) != 0 {
		t.Fatalf("suspected too early: %v", suspects)
	}
	d.Heard(2, 4*sec)
	d.Tick(4*sec + 100)
	if len(suspects) != 1 || suspects[0] != 1 {
		t.Fatalf("suspects = %v, want [1]", suspects)
	}
	if !d.Suspected(1) || d.Suspected(2) {
		t.Fatal("Suspected state wrong")
	}
}

func TestSuspectFiresOnce(t *testing.T) {
	fired := 0
	d := NewDetector(0, 2, time.Second, 0, func(ids.ProcID) { fired++ })
	d.Tick(5 * sec)
	d.Tick(6 * sec)
	d.Tick(7 * sec)
	if fired != 1 {
		t.Fatalf("onSuspect fired %d times, want 1", fired)
	}
}

func TestHeardClearsSuspicion(t *testing.T) {
	fired := 0
	d := NewDetector(0, 2, time.Second, 0, func(ids.ProcID) { fired++ })
	d.Tick(5 * sec)
	if !d.Suspected(1) {
		t.Fatal("expected suspicion")
	}
	d.Heard(1, 6*sec)
	if d.Suspected(1) {
		t.Fatal("traffic must clear suspicion")
	}
	d.Tick(10 * sec)
	if fired != 2 {
		t.Fatalf("re-suspicion after clear must fire again: fired=%d", fired)
	}
}

func TestNeverSuspectsSelfOrStorage(t *testing.T) {
	d := NewDetector(1, 3, time.Second, 0, nil)
	d.Tick(100 * sec)
	if d.Suspected(1) {
		t.Fatal("must never suspect self")
	}
	if d.Suspected(ids.StorageProc) {
		t.Fatal("must never suspect the storage pseudo-process")
	}
	// Heard from storage must not panic or misindex.
	d.Heard(ids.StorageProc, 5*sec)
	if !d.Suspected(0) || !d.Suspected(2) {
		t.Fatal("the silent peers 0 and 2 must be suspected")
	}
}

func TestClear(t *testing.T) {
	d := NewDetector(0, 2, time.Second, 0, nil)
	d.Tick(5 * sec)
	d.Heard(1, 5*sec)
	if d.Suspected(1) {
		t.Fatal("Heard must remove suspicion")
	}
}

func TestPlanSorted(t *testing.T) {
	p := Plan{{At: 3 * time.Second, Proc: 2}, {At: time.Second, Proc: 0}, {At: 2 * time.Second, Proc: 1}}
	s := p.Sorted()
	if s[0].Proc != 0 || s[1].Proc != 1 || s[2].Proc != 2 {
		t.Fatalf("Sorted = %v", s)
	}
	if p[0].Proc != 2 {
		t.Fatal("Sorted must not mutate the original plan")
	}
}

// ── Plan.Sorted edge cases ─────────────────────────────

func TestSortedEmptyPlan(t *testing.T) {
	var p Plan
	if got := p.Sorted(); len(got) != 0 {
		t.Fatalf("Sorted(empty) = %v", got)
	}
}

func TestSortedEqualTimesIsStable(t *testing.T) {
	p := Plan{{At: 5 * time.Second, Proc: 2}, {At: 5 * time.Second, Proc: 0}, {At: 5 * time.Second, Proc: 1}}
	got := p.Sorted()
	want := Plan{{At: 5 * time.Second, Proc: 2}, {At: 5 * time.Second, Proc: 0}, {At: 5 * time.Second, Proc: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("equal-time sort not stable: %v", got)
	}
}

func TestSortedStepTieBreak(t *testing.T) {
	p := Plan{{Step: 40, Proc: 1}, {Step: 7, Proc: 0}, {At: time.Second, Proc: 2}}
	got := p.Sorted()
	want := Plan{{Step: 7, Proc: 0}, {Step: 40, Proc: 1}, {At: time.Second, Proc: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step tie-break wrong: %v", got)
	}
}

// TestPlanFullFWithStoragePresent exercises the f = n shape: every
// application process crashes (the storage pseudo-process, ids.StorageProc,
// never does — the kernel enforces that at injection). Sorting must handle
// the full-f plan without special cases.
func TestPlanFullFWithStoragePresent(t *testing.T) {
	n := 4
	p := Plan{}
	for i := n - 1; i >= 0; i-- {
		p = append(p, Crash{At: time.Duration(i+1) * time.Second, Proc: ids.ProcID(i)})
	}
	s := p.Sorted()
	for i := 1; i < len(s); i++ {
		if s[i-1].At > s[i].At {
			t.Fatal("full-f plan not sorted")
		}
	}
}
