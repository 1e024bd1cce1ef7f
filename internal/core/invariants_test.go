package core

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/selectors"
)

// TestWaitAndGoParticipantSetPinnedPerFamily verifies §4's correctness
// invariant verbatim: "the set of stations involved in any selective family
// of F remains unchanged during the execution of that selective family."
// With the wait barrier, a station woken mid-family must not become a
// participant until the next boundary, so between two consecutive
// boundaries the set of stations that are past their σ never changes.
func TestWaitAndGoParticipantSetPinnedPerFamily(t *testing.T) {
	n, k := 128, 6
	p := model.Params{N: n, K: k, S: -1, Seed: 41}
	a := NewWaitAndGo()
	lad := selectors.RandomLadder(a.ladder(p))
	z := lad.Length()

	// Stagger wakes so several land strictly inside family spans.
	src := rng.New(99)
	ids := src.Sample(nil, n, k)
	wakes := make([]int64, k)
	for i := range wakes {
		wakes[i] = src.Int63n(z)
	}
	sigmas := make(map[int]int64, k)
	for i, id := range ids {
		sigmas[id] = lad.NextBoundary(wakes[i])
	}

	// Enumerate boundary slots over two periods and check constancy of the
	// participant set within each inter-boundary span.
	var boundaries []int64
	for cycle := int64(0); cycle < 2; cycle++ {
		for f := 0; f < lad.NumFamilies(); f++ {
			boundaries = append(boundaries, cycle*z+lad.FamilyStart(f))
		}
	}
	boundaries = append(boundaries, 2*z)

	for b := 0; b+1 < len(boundaries); b++ {
		lo, hi := boundaries[b], boundaries[b+1]
		setAt := func(tt int64) map[int]bool {
			s := map[int]bool{}
			for _, id := range ids {
				if sigmas[id] <= tt {
					s[id] = true
				}
			}
			return s
		}
		ref := setAt(lo)
		for tt := lo + 1; tt < hi; tt++ {
			cur := setAt(tt)
			if len(cur) != len(ref) {
				t.Fatalf("participant set changed mid-family at slot %d (span [%d,%d))", tt, lo, hi)
			}
			for id := range ref {
				if !cur[id] {
					t.Fatalf("station %d left the participant set mid-family", id)
				}
			}
		}
	}
}

// TestWaitAndGoXiMonotoneCoversSomeFamily replays §4's existence argument:
// the participating sets X_i grow monotonically with the family index, are
// bounded by k, and therefore some family i satisfies 2^(i-1) ≤ |X_i| ≤ 2^i
// — the rung whose selectivity the proof invokes. We verify the pigeonhole
// on concrete populations.
func TestWaitAndGoXiMonotoneCoversSomeFamily(t *testing.T) {
	n := 256
	for _, k := range []int{2, 3, 5, 8} {
		p := model.Params{N: n, K: k, S: -1, Seed: uint64(k) * 13}
		a := NewWaitAndGo()
		lad := selectors.RandomLadder(a.ladder(p))

		src := rng.New(uint64(k) * 7)
		ids := src.Sample(nil, n, k)
		// All stations wake within the first family so every X_i for i >= 2
		// contains all of them; X_1 contains those woken at slot 0.
		wakes := make([]int64, k)
		wakes[0] = 0
		for i := 1; i < k; i++ {
			wakes[i] = src.Int63n(lad.FamilyStart(1) + 1)
		}

		// X_i = stations whose sigma <= start of family i.
		covered := false
		for fi := 0; fi < lad.NumFamilies(); fi++ {
			start := lad.FamilyStart(fi)
			xi := 0
			for j, id := range ids {
				_ = id
				if lad.NextBoundary(wakes[j]) <= start {
					xi++
				}
			}
			lo := int64(1) << uint(fi) // 2^(i-1) with i = fi+1
			hi := int64(2) << uint(fi) // 2^i
			if int64(xi) >= lo && int64(xi) <= hi {
				covered = true
			}
		}
		if !covered {
			t.Errorf("k=%d: no family rung covers its X_i — §4's pigeonhole argument violated", k)
		}
	}
}

// TestWakeupCRowDescentMatchesFigure1 verifies the Figure 1 structure at
// the protocol level: a station operative from µ(σ) spends exactly m_i
// slots in row i, entering row i at µ(σ) + m_1 + … + m_{i-1}.
func TestWakeupCRowDescentMatchesFigure1(t *testing.T) {
	a := NewWakeupC()
	p := model.Params{N: 64, S: -1, Seed: 21}
	spec := a.Spec(p)
	sigma := int64(7)
	op := spec.Mu(sigma)
	for i := 1; i <= spec.Rows; i++ {
		entry := spec.RowEntry(op, i)
		wantEntry := op
		for r := 1; r < i; r++ {
			wantEntry += spec.RowResidence(r)
		}
		if entry != wantEntry {
			t.Fatalf("row %d entry %d, want %d", i, entry, wantEntry)
		}
	}
}

// TestScenarioKnowledgeEnforcement pins the knowledge discipline: Scenario
// A and B algorithms refuse to run without their parameter, and the
// Scenario C algorithm runs with neither.
func TestScenarioKnowledgeEnforcement(t *testing.T) {
	paramsC := model.Params{N: 16, S: -1}
	// Scenario C must build fine with zero knowledge.
	if f := NewWakeupC().Build(paramsC, 1, 0, nil); f == nil {
		t.Fatal("wakeup(n) refused Scenario C params")
	}
	// Scenario A component requires S.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("select_among_the_first accepted unknown s")
			}
		}()
		NewSelectAmongFirst().Build(paramsC, 1, 0, nil)
	}()
	// Scenario B component requires K.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wait_and_go accepted unknown k")
			}
		}()
		NewWaitAndGo().Build(paramsC, 1, 0, nil)
	}()
	// RPD-with-k requires K.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rpd(ell=2logk) accepted unknown k")
			}
		}()
		NewRPDWithK().Build(paramsC, 1, 0, rng.New(1))
	}()
}
