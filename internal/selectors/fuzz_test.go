package selectors

import (
	"testing"
)

// FuzzSequenceIndexing drives Locate/Member/NextBoundary with arbitrary
// rung structures and indices, checking the boundary algebra wait_and_go
// synchronizes on.
func FuzzSequenceIndexing(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint16(0))
	f.Add(uint8(1), uint8(1), uint16(999))
	f.Add(uint8(6), uint8(4), uint16(77))
	f.Fuzz(func(t *testing.T, rawN, rawRungs uint8, rawT uint16) {
		n := int(rawN)%20 + 2
		rungs := int(rawRungs)%4 + 1
		fams := make([]Family, rungs)
		for i := 1; i <= rungs; i++ {
			fams[i-1] = NewRandomPow2Sized(n, i, uint64(rawT)+uint64(i), 2)
		}
		seq := NewSequence(fams...)
		z := seq.Length()

		// Locate is the inverse of the prefix structure.
		for j := int64(0); j < z; j++ {
			fi, local := seq.Locate(j)
			if seq.FamilyStart(fi)+local != j {
				t.Fatalf("Locate(%d) inconsistent", j)
			}
			if local < 0 || local >= fams[fi].Length() {
				t.Fatalf("Locate(%d) local index out of range", j)
			}
			// Member dispatches to the right component.
			for id := 1; id <= n; id++ {
				if seq.Member(j, id) != fams[fi].Member(local, id) {
					t.Fatalf("Member(%d,%d) dispatch wrong", j, id)
				}
			}
		}

		// NextBoundary: minimal boundary at or after t, cyclically.
		tt := int64(rawT) % (3 * z)
		b := seq.NextBoundary(tt)
		if b < tt || b-tt >= z {
			t.Fatalf("NextBoundary(%d) = %d out of range", tt, b)
		}
		isStart := false
		for i := 0; i < seq.NumFamilies(); i++ {
			if b%z == seq.FamilyStart(i) {
				isStart = true
			}
		}
		if !isStart {
			t.Fatalf("NextBoundary(%d) = %d is not a family start", tt, b)
		}
	})
}

// FuzzKautzSingletonIsolation checks the unconditional strong-selectivity
// guarantee on arbitrary small instances: for any X of size ≤ k, every
// x ∈ X has an isolating set.
func FuzzKautzSingletonIsolation(f *testing.F) {
	f.Add(uint8(10), uint8(3), uint16(0x0703))
	f.Add(uint8(15), uint8(4), uint16(0xffff))
	f.Fuzz(func(t *testing.T, rawN, rawK uint8, rawX uint16) {
		n := int(rawN)%14 + 2
		k := int(rawK)%4 + 1
		if k > n {
			k = n
		}
		ks := NewKautzSingleton(n, k)
		// Build X from the bits of rawX (bounded by k elements).
		var xs []int
		for bit := 0; bit < 16 && len(xs) < k; bit++ {
			if rawX&(1<<uint(bit)) != 0 {
				id := bit%n + 1
				dup := false
				for _, e := range xs {
					if e == id {
						dup = true
					}
				}
				if !dup {
					xs = append(xs, id)
				}
			}
		}
		if len(xs) == 0 {
			return
		}
		for _, target := range xs {
			found := false
			for j := int64(0); j < ks.Length() && !found; j++ {
				if !ks.Member(j, target) {
					continue
				}
				clean := true
				for _, other := range xs {
					if other != target && ks.Member(j, other) {
						clean = false
						break
					}
				}
				found = clean
			}
			if !found {
				t.Fatalf("KS(n=%d,k=%d) cannot isolate %d within %v", n, k, target, xs)
			}
		}
	})
}

// FuzzKSCursor drives a Kautz–Singleton ladder cursor over an arbitrary
// stream of slot deltas (two bytes each, little-endian, signed; a step below
// slot 0 reflects) and checks every answer against MemberCyclic: Member at
// each slot, and Next from it, the first member slot at or after it.
func FuzzKSCursor(f *testing.F) {
	f.Add(uint8(10), uint8(1), uint16(3), []byte{1, 0, 1, 0, 1, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(100), uint8(3), uint16(57), []byte{0x10, 0x01, 0xf0, 0xfe, 0x7f, 0x00, 0x01, 0x80})
	f.Add(uint8(1), uint8(2), uint16(0), []byte{2, 0, 3, 0, 5, 0, 7, 0})
	f.Fuzz(func(t *testing.T, rawN, rawMaxI uint8, rawID uint16, deltas []byte) {
		n := int(rawN)%120 + 1
		maxI := int(rawMaxI)%4 + 1
		id := int(rawID)%n + 1
		seq := KSLadder(n, maxI)
		c := seq.KSCursor(id)
		var tt int64
		for i := 0; ; i += 2 {
			if got, want := c.Member(tt), seq.MemberCyclic(tt, id); got != want {
				t.Fatalf("KSLadder(%d,%d) id=%d: Member(%d) = %v, MemberCyclic = %v", n, maxI, id, tt, got, want)
			}
			next := c.Next(tt)
			if next < tt || !seq.MemberCyclic(next, id) {
				t.Fatalf("KSLadder(%d,%d) id=%d: Next(%d) = %d, not a member slot at or after it", n, maxI, id, tt, next)
			}
			for s := tt; s < next; s++ {
				if seq.MemberCyclic(s, id) {
					t.Fatalf("KSLadder(%d,%d) id=%d: Next(%d) = %d skips member slot %d", n, maxI, id, tt, next, s)
				}
			}
			if i+1 >= len(deltas) {
				break
			}
			tt += int64(int16(uint16(deltas[i]) | uint16(deltas[i+1])<<8))
			if tt < 0 {
				tt = -tt
			}
		}
	})
}
