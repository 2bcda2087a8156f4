package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroValueIsEmpty(t *testing.T) {
	var s Set
	if s.Count() != 0 {
		t.Fatalf("zero value not empty: count=%d", s.Count())
	}
	if s.Contains(0) || s.Contains(100) {
		t.Fatal("zero value contains elements")
	}
}

func TestAddContains(t *testing.T) {
	var s Set
	elems := []int{0, 1, 63, 64, 65, 127, 128, 500}
	for _, e := range elems {
		s.Add(e)
	}
	for _, e := range elems {
		if !s.Contains(e) {
			t.Errorf("missing %d after Add", e)
		}
	}
	if got := s.Count(); got != len(elems) {
		t.Fatalf("Count = %d, want %d", got, len(elems))
	}
}

func TestAddIdempotent(t *testing.T) {
	var s Set
	s.Add(7)
	s.Add(7)
	if s.Count() != 1 {
		t.Fatalf("Count = %d after double add, want 1", s.Count())
	}
}

func TestNegativeIgnored(t *testing.T) {
	var s Set
	s.Add(-1)
	if s.Count() != 0 || s.Contains(-1) {
		t.Fatal("negative elements must be ignored")
	}
}

func TestUnion(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 70})
	b := FromSlice([]int{3, 4, 200})
	a.Union(b)
	want := []int{1, 2, 3, 4, 70, 200}
	got := a.Elems()
	if len(got) != len(want) {
		t.Fatalf("union elems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union elems = %v, want %v", got, want)
		}
	}
}

func TestEqualIgnoresCapacity(t *testing.T) {
	a := New(1000)
	var b Set
	a.Add(3)
	b.Add(3)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("sets with same elements but different capacity must be Equal")
	}
	b.Add(999)
	if a.Equal(b) {
		t.Fatal("different sets reported Equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]int{1, 2})
	c := a.Clone()
	c.Add(3)
	if a.Contains(3) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	a := FromSlice([]int{0, 63, 64, 300})
	b := View(a.Words())
	if !a.Equal(b) {
		t.Fatalf("round trip mismatch: %v vs %v", a, b)
	}
	// Trailing zero words must be trimmed.
	s := New(1024)
	s.Add(1)
	if got := len(s.Words()); got != 1 {
		t.Fatalf("Words() kept %d words, want 1", got)
	}
}

func TestString(t *testing.T) {
	s := FromSlice([]int{2, 0, 65})
	if got := s.String(); got != "{0,2,65}" {
		t.Fatalf("String = %q", got)
	}
	var e Set
	if got := e.String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// normalize keeps quick-generated elements small and non-negative so the
// properties exercise word boundaries without huge allocations.
func normalize(raw []uint16) []int {
	out := make([]int, len(raw))
	for i, v := range raw {
		out[i] = int(v % 300)
	}
	return out
}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a1 := FromSlice(normalize(xs))
		b1 := FromSlice(normalize(ys))
		a2 := b1.Clone()
		b2 := a1.Clone()
		a1.Union(b1)
		a2.Union(b2)
		return a1.Equal(a2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionIdempotent(t *testing.T) {
	f := func(xs []uint16) bool {
		a := FromSlice(normalize(xs))
		b := a.Clone()
		a.Union(b)
		return a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionSupersets(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		ex, ey := normalize(xs), normalize(ys)
		a := FromSlice(ex)
		a.Union(FromSlice(ey))
		for _, e := range ex {
			if !a.Contains(e) {
				return false
			}
		}
		for _, e := range ey {
			if !a.Contains(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesElems(t *testing.T) {
	f := func(xs []uint16) bool {
		s := FromSlice(normalize(xs))
		return s.Count() == len(s.Elems())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWordsRoundTrip(t *testing.T) {
	f := func(xs []uint16) bool {
		s := FromSlice(normalize(xs))
		return View(s.Words()).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := New(64)
	c := New(64)
	for i := 0; i < 32; i++ {
		a.Add(rng.Intn(64))
		c.Add(rng.Intn(64))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Union(c)
	}
}

func TestElemsFromSliceRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{0, 1, 63, 64, 65, 127, 128, 500},
		{7, 7, 7}, // duplicates collapse
	}
	for _, elems := range cases {
		s := FromSlice(elems)
		back := FromSlice(s.Elems())
		if !s.Equal(back) {
			t.Errorf("FromSlice(%v).Elems() round trip mismatch: %v vs %v", elems, s, back)
		}
		got := back.Elems()
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Errorf("Elems() not strictly ascending: %v", got)
			}
		}
	}
}

func TestQuickElemsRoundTrip(t *testing.T) {
	f := func(xs []uint16) bool {
		s := FromSlice(normalize(xs))
		return FromSlice(s.Elems()).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHotOpsAllocs pins the invariant the determinant log's per-event paths
// rely on: once a set has grown to cover its element universe, the
// operations on them are allocation-free. Growth itself is
// TestGrowthSingleAllocation's.
func TestHotOpsAllocs(t *testing.T) {
	a := FromSlice([]int{1, 63, 64, 200})
	b := FromSlice([]int{2, 63, 199, 200})
	sink := false
	sinkInt := 0
	var sinkWords []uint64
	ops := map[string]func(){
		"Contains":  func() { sink = a.Contains(64) },
		"Count":     func() { sinkInt = a.Count() },
		"Equal":     func() { sink = a.Equal(b) },
		"Words":     func() { sinkWords = a.Words() },
		"AddNoGrow": func() { a.Add(100) },
		"UnionNoGrow": func() {
			// b's backing is no longer than a's, so Union never appends.
			a.Union(b)
		},
	}
	for name, op := range ops {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call; hot-path ops must be allocation-free", name, allocs)
		}
	}
	_, _, _ = sink, sinkInt, sinkWords
}

// TestGrowthSingleAllocation pins the n=1024 scaling fix: growing a set to
// cover element i must cost exactly one backing allocation, not one append
// per 64-bit word. At a 1024-process universe the old loop performed ~16
// appends (and up to 16 copies) per fresh holder set.
func TestGrowthSingleAllocation(t *testing.T) {
	for _, elem := range []int{0, 63, 64, 1023, 1024, 4096} {
		allocs := testing.AllocsPerRun(100, func() {
			var s Set
			s.Add(elem)
		})
		if allocs > 1 {
			t.Errorf("Add(%d) on a zero set allocates %.1f times, want 1", elem, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			s := FromSlice([]int{0})
			s.Add(elem)
		})
		if allocs > 2 { // FromSlice's word + at most one growth step
			t.Errorf("grow-to-%d allocates %.1f times, want <= 2", elem, allocs)
		}
	}
	big := New(4096)
	allocs := testing.AllocsPerRun(100, func() {
		var s Set
		s.Union(big)
	})
	if allocs > 1 {
		t.Errorf("Union growth allocates %.1f times, want 1", allocs)
	}
}

// TestRunCount checks the word-parallel run counter against a direct scan.
func TestRunCount(t *testing.T) {
	cases := []struct {
		elems []int
		want  int
	}{
		{nil, 0},
		{[]int{5}, 1},
		{[]int{5, 6, 7}, 1},
		{[]int{5, 7}, 2},
		{[]int{0, 63, 64, 65, 200}, 3},   // run straddles the word boundary
		{[]int{62, 63, 64, 127, 128}, 2}, // two straddling runs
		{[]int{0, 1, 2, 3, 1020, 1021, 1023}, 3},
	}
	for _, c := range cases {
		s := FromSlice(c.elems)
		if got := s.RunCount(); got != c.want {
			t.Errorf("RunCount(%v) = %d, want %d", c.elems, got, c.want)
		}
	}
}

// TestQuickRunCount cross-checks RunCount against a naive count over Elems.
func TestQuickRunCount(t *testing.T) {
	f := func(elems []uint16) bool {
		var s Set
		for _, e := range elems {
			s.Add(int(e))
		}
		naive := 0
		prev := -2
		for _, e := range s.Elems() {
			if e != prev+1 {
				naive++
			}
			prev = e
		}
		return s.RunCount() == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
