package matrix

// This file implements the analysis machinery of paper §5.2 — the sets
// S_{i,j}, windows, the well-balanced condition (S1/S2), and the isolation
// predicate of Definition 5.3 — as executable artifacts. The tests use them
// to verify, on concrete populations, the quantities the probabilistic
// proof manipulates: Theorem 5.1's well-balanced deadline, Lemma 5.4's
// density interval, and isolation before the first well-balanced round.

// Station pairs an ID with its wake time (the paper's (u, σ_u) couples).
type Station struct {
	ID   int
	Wake int64
}

// Population is a fixed set of woken stations under analysis.
type Population []Station

// Operational returns the stations that are operational at slot j, i.e.
// those with µ(σ) ≤ j — the paper's S(j).
func (s Spec) Operational(pop Population, j int64) Population {
	var out Population
	for _, st := range pop {
		if s.Mu(st.Wake) <= j {
			out = append(out, st)
		}
	}
	return out
}

// SRow returns S_{i,j}: the stations that at slot j transmit conditionally
// to row i of the matrix (their protocol position at j sits in row i).
// The sets {S_{i,j}}_i partition S(j) (§5.2).
func (s Spec) SRow(pop Population, i int, j int64) Population {
	if i < 1 || i > s.Rows {
		panic("matrix: SRow row out of range")
	}
	var out Population
	for _, st := range pop {
		op := s.Mu(st.Wake)
		if op > j {
			continue
		}
		row, _ := s.RowAt(op, j)
		if row == i {
			out = append(out, st)
		}
	}
	return out
}

// RowSizes returns |S_{i,j}| for i = 1..Rows at slot j.
func (s Spec) RowSizes(pop Population, j int64) []int {
	sizes := make([]int, s.Rows)
	for _, st := range pop {
		op := s.Mu(st.Wake)
		if op > j {
			continue
		}
		row, _ := s.RowAt(op, j)
		sizes[row-1]++
	}
	return sizes
}

// DensitySum returns Σ_i |S_{i,j}| / 2^(i+ρ(j)) at slot j — the quantity
// Lemma 5.4 squeezes into [1/8, 2] on good slots (the per-slot expected
// number of transmitters).
func (s Spec) DensitySum(pop Population, j int64) float64 {
	rho := s.Rho(j % s.Length())
	var sum float64
	for i, size := range s.RowSizes(pop, j) {
		if size == 0 {
			continue
		}
		e := i + 1 + rho
		if e >= 63 {
			continue
		}
		sum += float64(size) / float64(int64(1)<<uint(e))
	}
	return sum
}

// ConditionS1 checks §5.2's condition S1 at slot j:
// Σ_i |S_{i,j}| / 2^i ≤ log n.
func (s Spec) ConditionS1(pop Population, j int64) bool {
	var sum float64
	for i, size := range s.RowSizes(pop, j) {
		if size == 0 {
			continue
		}
		sum += float64(size) / float64(int64(1)<<uint(i+1))
	}
	return sum <= float64(s.Rows)
}

// ConditionS2 checks §5.2's condition S2 at slot j:
// ∃ i with |S_{i,j}| ≥ 2^(i−3).
func (s Spec) ConditionS2(pop Population, j int64) bool {
	for i, size := range s.RowSizes(pop, j) {
		// 2^(i-3) with i 1-based: threshold max(1/4·…, fractional) — any
		// non-empty row with small i qualifies since 2^{i-3} < 1 for i ≤ 3.
		threshold := int64(1)
		if i+1 > 3 {
			threshold = int64(1) << uint(i+1-3)
		}
		if int64(size) >= threshold && size > 0 {
			return true
		}
	}
	return false
}

// GoodSlot reports whether both S1 and S2 hold at slot j for the
// operational population (the per-slot content of the well-balanced
// definition). Property P2 says goodness is constant across each window.
func (s Spec) GoodSlot(pop Population, j int64) bool {
	if len(s.Operational(pop, j)) == 0 {
		return false
	}
	return s.ConditionS1(pop, j) && s.ConditionS2(pop, j)
}

// FirstWellBalancedRound scans forward from the population's first wake
// and returns the earliest round t such that at least
// c·|S(t)|·log n·log log n slots j ≤ t were good — Definition 5.2
// operationalized. Returns -1 if none is found before the deadline
// 2c·k·log n·log log n + first wake (Theorem 5.1 promises one by then).
func (s Spec) FirstWellBalancedRound(pop Population) int64 {
	if len(pop) == 0 {
		panic("matrix: empty population")
	}
	first := pop[0].Wake
	for _, st := range pop[1:] {
		if st.Wake < first {
			first = st.Wake
		}
	}
	deadline := first + 2*int64(s.C)*int64(len(pop))*int64(s.Rows)*int64(s.Window) + int64(s.Window)
	good := int64(0)
	for t := first; t <= deadline; t++ {
		if s.GoodSlot(pop, t) {
			good++
		}
		need := int64(s.C) * int64(len(s.Operational(pop, t))) * int64(s.Rows) * int64(s.Window)
		if need > 0 && good >= need {
			return t
		}
	}
	return -1
}

// IsolatedAt returns the station isolated at slot j per Definition 5.3 —
// the unique w with ⋃_i (S_{i,j} ∩ M_{i,j}) = {w} — or (0, false).
func (s Spec) IsolatedAt(pop Population, j int64) (int, bool) {
	winner := 0
	count := 0
	for i := 1; i <= s.Rows; i++ {
		for _, st := range s.SRow(pop, i, j) {
			if s.Member(i, j, st.ID) {
				count++
				if count > 1 {
					return 0, false
				}
				winner = st.ID
			}
		}
	}
	return winner, count == 1
}

// FirstIsolation scans from the first wake to the given horizon and
// returns the first slot with an isolated station. This is the
// matrix-level ground truth the engine-level simulation must agree with.
func (s Spec) FirstIsolation(pop Population, horizon int64) (slot int64, id int, ok bool) {
	if len(pop) == 0 {
		panic("matrix: empty population")
	}
	first := pop[0].Wake
	for _, st := range pop[1:] {
		if st.Wake < first {
			first = st.Wake
		}
	}
	for t := first; t < first+horizon; t++ {
		if w, isolated := s.IsolatedAt(pop, t); isolated {
			return t, w, true
		}
	}
	return -1, 0, false
}

// TheoremDeadline returns Theorem 5.3's guarantee window for a population
// of size k: O(k log n log log n) with this spec's constants, plus the
// initial window wait.
func (s Spec) TheoremDeadline(k int) int64 {
	if k < 1 {
		panic("matrix: TheoremDeadline requires k >= 1")
	}
	return 2*int64(s.C)*int64(max(1, k))*int64(s.Rows)*int64(s.Window) + int64(s.Window)
}
