package bitset

import "testing"

// FuzzSetOperations feeds arbitrary byte strings interpreted as element
// streams into two bitsets and checks the algebraic invariants that the
// channel arbitration and the selective-family verifiers rely on.
func FuzzSetOperations(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 4, 5})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{255, 255, 0, 64, 63, 65}, []byte{128})
	f.Fuzz(func(t *testing.T, ae, be []byte) {
		const n = 300
		a, b := New(n), New(n)
		for _, e := range ae {
			a.Set(int(e)%n + 1)
		}
		for _, e := range be {
			b.Set(int(e)%n + 1)
		}

		// |A∪B| + |A∩B| == |A| + |B|
		u := a.Clone()
		u.UnionWith(b)
		if u.Count()+a.IntersectCount(b) != a.Count()+b.Count() {
			t.Fatal("inclusion-exclusion violated")
		}
		// IntersectOne ⟺ IntersectCount == 1, and the witness is correct.
		x, one := a.IntersectOne(b)
		if one != (a.IntersectCount(b) == 1) {
			t.Fatal("IntersectOne disagrees with IntersectCount")
		}
		if one && (!a.Get(x) || !b.Get(x)) {
			t.Fatal("IntersectOne witness not in both sets")
		}
		// Difference removes exactly the intersection.
		d := a.Clone()
		d.DifferenceWith(b)
		if d.Count() != a.Count()-a.IntersectCount(b) {
			t.Fatal("difference cardinality wrong")
		}
		if d.IntersectCount(b) != 0 {
			t.Fatal("difference still intersects subtrahend")
		}
		// Slice round-trips.
		r := FromSlice(n, a.Slice())
		if !r.Equal(a) {
			t.Fatal("Slice/FromSlice round-trip failed")
		}
	})
}
