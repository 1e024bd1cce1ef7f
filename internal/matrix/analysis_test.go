package matrix

import (
	"testing"

	"nsmac/internal/rng"
)

// popOf builds a population from parallel id/wake lists.
func popOf(ids []int, wakes []int64) Population {
	p := make(Population, len(ids))
	for i := range ids {
		p[i] = Station{ID: ids[i], Wake: wakes[i]}
	}
	return p
}

// randomPop draws k distinct stations with wakes in [0, window).
func randomPop(n, k int, window int64, seed uint64) Population {
	src := rng.New(seed)
	ids := src.Sample(nil, n, k)
	p := make(Population, k)
	for i, id := range ids {
		var w int64
		if window > 0 {
			w = src.Int63n(window)
		}
		p[i] = Station{ID: id, Wake: w}
	}
	return p
}

func TestOperationalRespectsMu(t *testing.T) {
	s := NewSpec(1<<16, 1, 5) // window 4
	pop := popOf([]int{1, 2, 3}, []int64{0, 1, 4})
	// At slot 0: only station 1 (µ(0)=0) is operational.
	if got := s.Operational(pop, 0); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("Operational(0) = %v", got)
	}
	// At slot 3: station 2 (µ(1)=4) still waiting.
	if got := s.Operational(pop, 3); len(got) != 1 {
		t.Errorf("Operational(3) = %v", got)
	}
	// At slot 4: all three (µ(4)=4).
	if got := s.Operational(pop, 4); len(got) != 3 {
		t.Errorf("Operational(4) = %v", got)
	}
}

func TestSRowPartitionsOperational(t *testing.T) {
	s := NewSpec(256, 1, 9)
	pop := randomPop(256, 12, 64, 3)
	for _, j := range []int64{70, 150, 400, 1000} {
		opCount := len(s.Operational(pop, j))
		total := 0
		seen := map[int]bool{}
		for i := 1; i <= s.Rows; i++ {
			for _, st := range s.SRow(pop, i, j) {
				if seen[st.ID] {
					t.Fatalf("station %d in two rows at slot %d", st.ID, j)
				}
				seen[st.ID] = true
				total++
			}
		}
		if total != opCount {
			t.Errorf("slot %d: rows partition %d stations, operational %d", j, total, opCount)
		}
		// RowSizes agrees with SRow.
		sizes := s.RowSizes(pop, j)
		for i := 1; i <= s.Rows; i++ {
			if sizes[i-1] != len(s.SRow(pop, i, j)) {
				t.Fatalf("RowSizes disagrees with SRow at (%d,%d)", i, j)
			}
		}
	}
}

func TestConditionS2SmallRowsAlwaysQualify(t *testing.T) {
	s := NewSpec(256, 1, 1)
	// A single operational station sits in row 1: |S_1| = 1 ≥ 2^{-2} ⇒ S2.
	pop := popOf([]int{5}, []int64{0})
	j := s.Mu(0)
	if !s.ConditionS2(pop, j) {
		t.Error("S2 must hold with one station in row 1")
	}
	if !s.ConditionS1(pop, j) {
		t.Error("S1 must hold with one station")
	}
	if !s.GoodSlot(pop, j) {
		t.Error("slot with one row-1 station must be good")
	}
}

func TestGoodSlotEmptyPopulation(t *testing.T) {
	s := NewSpec(64, 1, 2)
	pop := popOf([]int{9}, []int64{100})
	if s.GoodSlot(pop, 0) {
		t.Error("slot before any station is operational cannot be good")
	}
}

func TestGoodnessConstantPerWindowP2(t *testing.T) {
	// Property P2: within a window, either every slot is good or none is.
	s := NewSpec(1<<12, 1, 7)
	pop := randomPop(1<<12, 9, 32, 5)
	w := int64(s.Window)
	deadline := s.TheoremDeadline(len(pop))
	for wStart := int64(0); wStart < deadline; wStart += w {
		first := s.GoodSlot(pop, wStart)
		for off := int64(1); off < w; off++ {
			if s.GoodSlot(pop, wStart+off) != first {
				t.Fatalf("goodness flipped mid-window at %d", wStart+off)
			}
		}
	}
}

func TestDensitySumMatchesHandComputation(t *testing.T) {
	s := NewSpec(1<<16, 1, 5) // rows 16, window 4
	// Three stations operational from slot 0, all in row 1 until m_1.
	pop := popOf([]int{1, 2, 3}, []int64{0, 0, 0})
	j := int64(0) // ρ(0) = 0
	want := 3.0 / 2.0
	if got := s.DensitySum(pop, j); got != want {
		t.Errorf("DensitySum = %v, want %v", got, want)
	}
	// At j=1 (ρ=1) the same population halves its density.
	if got := s.DensitySum(pop, 1); got != want/2 {
		t.Errorf("DensitySum(ρ=1) = %v, want %v", got, want/2)
	}
}

func TestDensitySweepHitsLemma54Interval(t *testing.T) {
	// Lemma 5.4: on good windows, some slot has density in [1/8, 2]. The ρ
	// sweep halves the density across the window, so for any reasonably
	// populated window at least one slot must land in the interval.
	s := NewSpec(1<<12, 1, 11)
	pop := randomPop(1<<12, 8, 16, 9)
	deadline := s.TheoremDeadline(len(pop))
	w := int64(s.Window)
	checkedWindows, hitWindows := 0, 0
	for wStart := int64(16); wStart < deadline; wStart += w {
		if !s.GoodSlot(pop, wStart) {
			continue
		}
		checkedWindows++
		for off := int64(0); off < w; off++ {
			d := s.DensitySum(pop, wStart+off)
			if d >= 0.125 && d <= 2 {
				hitWindows++
				break
			}
		}
	}
	if checkedWindows == 0 {
		t.Skip("no good windows in range (population too thin)")
	}
	if hitWindows < checkedWindows*9/10 {
		t.Errorf("only %d/%d good windows hit the [1/8,2] density interval", hitWindows, checkedWindows)
	}
}

func TestTheorem51WellBalancedDeadline(t *testing.T) {
	// Theorem 5.1: a well-balanced round occurs within 2c·|S|·logn·loglogn.
	s := NewSpec(512, 1, 13)
	for _, k := range []int{1, 2, 5, 10} {
		pop := randomPop(512, k, 8, uint64(k)*7)
		wb := s.FirstWellBalancedRound(pop)
		if wb < 0 {
			t.Errorf("k=%d: no well-balanced round before the deadline", k)
			continue
		}
		if wb > s.TheoremDeadline(k)+8 {
			t.Errorf("k=%d: well-balanced round %d beyond deadline %d", k, wb, s.TheoremDeadline(k))
		}
	}
}

func TestIsolationBeforeTheoremDeadline(t *testing.T) {
	// The waking-matrix property (Definition 5.3 + Theorem 5.3): some
	// station is isolated within the theorem window. Exercised across
	// several seeds and population shapes at the matrix level (independent
	// of the simulation engine).
	for _, n := range []int{64, 256} {
		for _, k := range []int{1, 3, 8} {
			s := NewSpec(n, 1, uint64(n+k))
			for trial := uint64(0); trial < 5; trial++ {
				pop := randomPop(n, k, int64(4*k), trial*31+uint64(k))
				deadline := 8 * s.TheoremDeadline(k)
				slot, id, ok := s.FirstIsolation(pop, deadline)
				if !ok {
					t.Errorf("n=%d k=%d trial=%d: no isolation within %d slots", n, k, trial, deadline)
					continue
				}
				found := false
				for _, st := range pop {
					if st.ID == id {
						found = true
					}
				}
				if !found {
					t.Errorf("isolated station %d not in population", id)
				}
				_ = slot
			}
		}
	}
}

func TestIsolatedAtDetectsCollisions(t *testing.T) {
	// Construct a slot where two stations transmit: IsolatedAt must reject.
	s := NewSpec(64, 1, 17)
	pop := randomPop(64, 16, 0, 3) // simultaneous at 0
	// Find a slot where >= 2 stations transmit.
	foundCollision := false
	for j := s.Mu(0); j < s.Mu(0)+2000 && !foundCollision; j++ {
		count := 0
		for i := 1; i <= s.Rows; i++ {
			for _, st := range s.SRow(pop, i, j) {
				if s.Member(i, j, st.ID) {
					count++
				}
			}
		}
		if count >= 2 {
			foundCollision = true
			if _, ok := s.IsolatedAt(pop, j); ok {
				t.Fatalf("IsolatedAt accepted a %d-transmitter slot", count)
			}
		}
	}
	if !foundCollision {
		t.Skip("no collision slot found in range (population too sparse)")
	}
}

func TestAnalysisPanics(t *testing.T) {
	s := NewSpec(16, 1, 1)
	for _, fn := range []func(){
		func() { s.SRow(nil, 0, 0) },
		func() { s.FirstWellBalancedRound(nil) },
		func() { s.FirstIsolation(nil, 10) },
		func() { s.TheoremDeadline(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
