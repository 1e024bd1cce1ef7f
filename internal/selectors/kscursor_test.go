package selectors

import (
	"fmt"
	"testing"

	"nsmac/internal/mathx"
)

// ksCursorCases are Kautz–Singleton ladders of several shapes: a k=1
// family (m=1, q = NextPrime(n)) over a non-prime n, ladders whose rungs
// have m ≥ 2, and a mixed concatenation.
func ksCursorCases() map[string]*Sequence {
	return map[string]*Sequence{
		"k1/n=10":        NewSequence(NewKautzSingleton(10, 1)),
		"ladder/n=100,3": KSLadder(100, 3),
		"ladder/n=64,4":  KSLadder(64, 4),
		"ladder/n=7,2":   KSLadder(7, 2),
		"mixed/n=10":     NewSequence(NewKautzSingleton(10, 1), NewKautzSingleton(10, 3), NewKautzSingleton(10, 2)),
	}
}

// ksCursorSlots returns the slot sequences a cursor is driven over: forward,
// backward, every slot queried twice, and jumps that land on and around
// position-block, family and whole-cycle boundaries in both directions.
func ksCursorSlots(seq *Sequence) map[string][]int64 {
	z := seq.Length()
	span := 2*z + 5
	var fwd, back, rep, jump []int64
	for t := int64(0); t < span; t++ {
		fwd = append(fwd, t)
		back = append(back, span-1-t)
		rep = append(rep, t, t)
	}
	// Boundaries: every family start and every block start of each family,
	// in the first and third cycle, visited out of order.
	var marks []int64
	for i := 0; i < seq.NumFamilies(); i++ {
		ks := seq.fams[i].(*KautzSingleton)
		q := int64(ks.Q())
		for p := int64(0); p < q; p++ {
			marks = append(marks, seq.FamilyStart(i)+p*q)
		}
	}
	for _, b := range marks {
		for _, cycle := range []int64{2, 0} {
			base := cycle*z + b
			for _, d := range []int64{0, -1, 1, z, -z + 1} {
				if t := base + d; t >= 0 {
					jump = append(jump, t)
				}
			}
		}
	}
	// A fixed LCG stream of far jumps across several cycles.
	x := uint64(12345)
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		jump = append(jump, int64(x>>33)%(5*z))
	}
	return map[string][]int64{"forward": fwd, "backward": back, "repeated": rep, "jumping": jump}
}

func TestKSCursorMatchesMemberCyclic(t *testing.T) {
	sawK1, sawM2 := false, false
	for name, seq := range ksCursorCases() {
		for i := 0; i < seq.NumFamilies(); i++ {
			ks := seq.fams[i].(*KautzSingleton)
			if ks.K() == 1 && ks.M() == 1 && ks.Q() == mathx.NextPrime(ks.N()) {
				sawK1 = true
			}
			if ks.M() >= 2 {
				sawM2 = true
			}
		}
		slots := ksCursorSlots(seq)
		for _, id := range []int{1, 2, seq.N() / 2, seq.N()} {
			if id < 1 {
				continue
			}
			// One cursor per id walks every sequence in turn, so each starts
			// from the window the previous one left behind.
			c := seq.KSCursor(id)
			for _, order := range []string{"forward", "backward", "repeated", "jumping", "forward"} {
				for _, ts := range slots[order] {
					if got, want := c.Member(ts), seq.MemberCyclic(ts, id); got != want {
						t.Fatalf("%s id=%d %s: Member(%d) = %v, MemberCyclic = %v", name, id, order, ts, got, want)
					}
				}
			}
		}
	}
	if !sawK1 || !sawM2 {
		t.Fatalf("cases miss a shape: k=1 family %v, m>=2 family %v", sawK1, sawM2)
	}
	t.Run("panics", testKSCursorPanics)
}

// panicValue runs fn and returns what it panicked with ("" if nothing).
func panicValue(fn func()) (v string) {
	defer func() {
		if r := recover(); r != nil {
			v = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// testKSCursorPanics checks that the cursor panics exactly where and how
// MemberCyclic does.
func testKSCursorPanics(t *testing.T) {
	seq := KSLadder(20, 2)
	warm := seq.KSCursor(3)
	warm.Member(5) // a cached window must not hide a negative index
	for _, c := range []struct {
		name   string
		cursor func()
		cyclic func()
	}{
		{"negative t", func() { seq.KSCursor(3).Member(-1) }, func() { seq.MemberCyclic(-1, 3) }},
		{"negative t, warm", func() { warm.Member(-1) }, func() { seq.MemberCyclic(-1, 3) }},
		{"id 0", func() { seq.KSCursor(0).Member(4) }, func() { seq.MemberCyclic(4, 0) }},
		{"id n+1", func() { seq.KSCursor(21).Member(40) }, func() { seq.MemberCyclic(40, 21) }},
		{"id n+1, negative t", func() { seq.KSCursor(21).Member(-2) }, func() { seq.MemberCyclic(-2, 21) }},
	} {
		got, want := panicValue(c.cursor), panicValue(c.cyclic)
		if want == "" {
			t.Fatalf("%s: MemberCyclic did not panic", c.name)
		}
		if got != want {
			t.Errorf("%s: cursor panics with %q, MemberCyclic with %q", c.name, got, want)
		}
	}
	if panicValue(func() { RandomLadder(20, 2, 1, DefaultSizeMult).KSCursor(1) }) == "" {
		t.Error("KSCursor over a random ladder did not panic")
	}
}
