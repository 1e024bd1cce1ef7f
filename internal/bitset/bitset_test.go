package bitset

import (
	"testing"
	"testing/quick"

	"nsmac/internal/rng"
)

func TestSetGetClear(t *testing.T) {
	b := New(130) // spans three words
	for _, x := range []int{1, 63, 64, 65, 128, 129, 130} {
		if b.Get(x) {
			t.Errorf("fresh set contains %d", x)
		}
		b.Set(x)
		if !b.Get(x) {
			t.Errorf("Set(%d) did not stick", x)
		}
	}
	if b.Count() != 7 {
		t.Errorf("Count = %d, want 7", b.Count())
	}
	b.Clear(64)
	if b.Get(64) {
		t.Error("Clear(64) did not remove")
	}
	if b.Count() != 6 {
		t.Errorf("Count after clear = %d, want 6", b.Count())
	}
}

func TestBoundsPanic(t *testing.T) {
	b := New(10)
	for _, x := range []int{0, -1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) should panic", x)
				}
			}()
			b.Get(x)
		}()
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestZeroCapacity(t *testing.T) {
	b := New(0)
	if !b.Empty() || b.Count() != 0 {
		t.Error("zero-capacity set should be empty")
	}
}

func TestFromSliceAndSlice(t *testing.T) {
	in := []int{5, 2, 9, 2} // duplicate collapses
	b := FromSlice(10, in)
	got := b.Slice()
	want := []int{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestEmptyResetClone(t *testing.T) {
	b := FromSlice(100, []int{1, 50, 100})
	if b.Empty() {
		t.Error("non-empty set reported Empty")
	}
	c := b.Clone()
	if !b.Equal(c) {
		t.Error("clone not equal to original")
	}
	c.Clear(50)
	if b.Equal(c) {
		t.Error("mutating clone affected original equality")
	}
	if !b.Get(50) {
		t.Error("mutating clone mutated original")
	}
	b.Reset()
	if !b.Empty() || b.Count() != 0 {
		t.Error("Reset did not empty the set")
	}
}

func TestEqualDifferentCapacity(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Error("different capacities must not be Equal")
	}
}

func TestSetOps(t *testing.T) {
	a := FromSlice(200, []int{1, 2, 3, 100, 199})
	b := FromSlice(200, []int{2, 3, 4, 100, 200})

	u := a.Clone()
	u.UnionWith(b)
	if got := u.Slice(); len(got) != 7 {
		t.Errorf("union = %v, want 7 elements", got)
	}

	i := a.Clone()
	i.IntersectWith(b)
	wantI := []int{2, 3, 100}
	gotI := i.Slice()
	if len(gotI) != len(wantI) {
		t.Fatalf("intersection = %v, want %v", gotI, wantI)
	}
	for j := range wantI {
		if gotI[j] != wantI[j] {
			t.Fatalf("intersection = %v, want %v", gotI, wantI)
		}
	}

	d := a.Clone()
	d.DifferenceWith(b)
	wantD := []int{1, 199}
	gotD := d.Slice()
	if len(gotD) != len(wantD) || gotD[0] != 1 || gotD[1] != 199 {
		t.Fatalf("difference = %v, want %v", gotD, wantD)
	}

	if got := a.IntersectCount(b); got != 3 {
		t.Errorf("IntersectCount = %d, want 3", got)
	}
}

func TestSetOpsCapacityMismatchPanics(t *testing.T) {
	a, b := New(10), New(20)
	ops := []func(){
		func() { a.UnionWith(b) },
		func() { a.IntersectWith(b) },
		func() { a.DifferenceWith(b) },
		func() { _ = a.IntersectCount(b) },
		func() { _, _ = a.IntersectOne(b) },
	}
	for i, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("op %d: expected capacity-mismatch panic", i)
				}
			}()
			op()
		}()
	}
}

func TestIntersectOne(t *testing.T) {
	x := FromSlice(100, []int{10, 20, 30})

	// Exactly one shared element.
	f1 := FromSlice(100, []int{20, 55, 99})
	if got, ok := x.IntersectOne(f1); !ok || got != 20 {
		t.Errorf("IntersectOne = (%d,%v), want (20,true)", got, ok)
	}

	// Two shared elements in the same word.
	f2 := FromSlice(100, []int{10, 20})
	if _, ok := x.IntersectOne(f2); ok {
		t.Error("IntersectOne accepted |∩| = 2 (same word)")
	}

	// Two shared elements in different words.
	y := FromSlice(100, []int{10, 90})
	f3 := FromSlice(100, []int{10, 90})
	if _, ok := y.IntersectOne(f3); ok {
		t.Error("IntersectOne accepted |∩| = 2 (different words)")
	}

	// Empty intersection.
	f4 := FromSlice(100, []int{1, 2, 3})
	if _, ok := x.IntersectOne(f4); ok {
		t.Error("IntersectOne accepted empty intersection")
	}
}

func TestIntersectOneAgreesWithCount(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 500; trial++ {
		n := src.Intn(300) + 1
		a := New(n)
		b := New(n)
		for j := 0; j < src.Intn(n+1); j++ {
			a.Set(src.Intn(n) + 1)
		}
		for j := 0; j < src.Intn(n+1); j++ {
			b.Set(src.Intn(n) + 1)
		}
		x, ok := a.IntersectOne(b)
		cnt := a.IntersectCount(b)
		if ok != (cnt == 1) {
			t.Fatalf("trial %d: IntersectOne ok=%v but count=%d", trial, ok, cnt)
		}
		if ok && (!a.Get(x) || !b.Get(x)) {
			t.Fatalf("trial %d: claimed intersection element %d not in both", trial, x)
		}
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	b := FromSlice(100, []int{3, 64, 65, 99})
	var visited []int
	b.ForEach(func(x int) bool {
		visited = append(visited, x)
		return x != 64 // stop after 64
	})
	if len(visited) != 2 || visited[0] != 3 || visited[1] != 64 {
		t.Errorf("early-stop visit = %v, want [3 64]", visited)
	}
}

func TestString(t *testing.T) {
	if s := FromSlice(10, []int{1, 5, 9}).String(); s != "{1,5,9}" {
		t.Errorf("String = %q, want {1,5,9}", s)
	}
	if s := New(5).String(); s != "{}" {
		t.Errorf("String = %q, want {}", s)
	}
}

// Property: Count always equals len(Slice), and all slice elements are
// distinct, sorted, in range.
func TestCountSliceProperty(t *testing.T) {
	f := func(elems []uint8) bool {
		n := 256
		b := New(n)
		uniq := map[int]bool{}
		for _, e := range elems {
			x := int(e)%n + 1
			b.Set(x)
			uniq[x] = true
		}
		s := b.Slice()
		if b.Count() != len(s) || len(s) != len(uniq) {
			return false
		}
		for i, v := range s {
			if !uniq[v] {
				return false
			}
			if i > 0 && s[i-1] >= v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan-ish consistency |A∪B| + |A∩B| == |A| + |B|.
func TestInclusionExclusionProperty(t *testing.T) {
	f := func(ae, be []uint8) bool {
		n := 256
		a, b := New(n), New(n)
		for _, e := range ae {
			a.Set(int(e)%n + 1)
		}
		for _, e := range be {
			b.Set(int(e)%n + 1)
		}
		u := a.Clone()
		u.UnionWith(b)
		return u.Count()+a.IntersectCount(b) == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: difference then union with the subtrahend restores a superset.
func TestDifferenceProperty(t *testing.T) {
	f := func(ae, be []uint8) bool {
		n := 128
		a, b := New(n), New(n)
		for _, e := range ae {
			a.Set(int(e)%n + 1)
		}
		for _, e := range be {
			b.Set(int(e)%n + 1)
		}
		d := a.Clone()
		d.DifferenceWith(b)
		if d.IntersectCount(b) != 0 {
			return false
		}
		d.UnionWith(b)
		// a ⊆ d ∪ b
		check := a.Clone()
		check.DifferenceWith(d)
		return check.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
