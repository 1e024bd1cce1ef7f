// Package matrix implements the Scenario C transmission matrix of paper §5.
//
// The matrix M has log n rows and ℓ = 2c·n·log n·log log n columns; entry
// M_{i,j} is a random subset of stations with membership probability
// 2^{-(i+ρ(j))} where ρ(j) = j mod log log n (§5.3). A station woken at σ
// waits until µ(σ) — the next multiple of log log n — then scans row 1 for
// m_1 = c·2·log n·log log n columns, row 2 for m_2 = c·4·log n·log log n
// columns, and so on, transmitting at slot t iff it belongs to the entry at
// (current row, t mod ℓ) (Protocol wakeup(u,σ), §5.1).
//
// Theorem 5.2 proves some fixed matrix with these marginals is a "waking
// matrix" by the probabilistic method; this package realizes the random
// matrix itself through a seeded avalanche hash (README "Departures from
// the paper", item 2), so membership is a pure O(1) function and the ℓ-column object costs
// no memory. Materialization and property checks for small n live in this
// package too.
package matrix

import (
	"fmt"

	"nsmac/internal/mathx"
	"nsmac/internal/rng"
)

// Spec fixes the matrix geometry for a universe of n stations.
type Spec struct {
	// N is the station universe size.
	N int
	// Rows = max(1, ceil(log2 n)) — the paper's log n rows.
	Rows int
	// Window = max(1, ceil(log2 log2 n)) — the paper's log log n, the
	// window length w used by ρ and µ.
	Window int
	// C is the paper's "sufficiently large constant" c. Latency scales
	// linearly with C; the isolation analysis only needs C large enough
	// that rows retain stations long enough. DefaultC suffices empirically
	// (validated by T4/T8).
	C int
	// Seed keys the random matrix.
	Seed uint64
}

// DefaultC is the default value of the constant c. The paper's analysis
// union-bounds with a large c; the measured isolation probability per
// "well-balanced" slot is ≥ 1/128 (Lemma 5.3), so small constants already
// give success well inside the O(k log n log log n) envelope (experiment
// T8c sweeps C to show the latency/robustness trade-off).
const DefaultC = 1

// NewSpec derives the paper's geometry from n with constant c and seed.
func NewSpec(n, c int, seed uint64) Spec {
	if n < 1 {
		panic("matrix: NewSpec requires n >= 1")
	}
	if c < 1 {
		panic("matrix: NewSpec requires c >= 1")
	}
	logN := max(1, mathx.Log2Ceil(max(2, n)))
	w := max(1, mathx.Log2Ceil(max(2, logN)))
	return Spec{N: n, Rows: logN, Window: w, C: c, Seed: seed}
}

// Length returns ℓ = 2c·n·log n·log log n, the number of columns before the
// circular scan wraps. It is always a positive multiple of Window, so
// ρ(t mod ℓ) == t mod Window.
func (s Spec) Length() int64 {
	return 2 * int64(s.C) * int64(s.N) * int64(s.Rows) * int64(s.Window)
}

// Rho returns ρ(j) = j mod Window for j >= 0.
func (s Spec) Rho(j int64) int {
	if j < 0 {
		panic("matrix: Rho of negative column")
	}
	return int(j % int64(s.Window))
}

// Mu returns µ(σ) = min{l >= σ : l ≡ 0 mod Window}: the slot at which a
// station woken at σ becomes operative (§5.1). Stations woken inside a
// window stay silent until the window boundary.
func (s Spec) Mu(sigma int64) int64 {
	if sigma < 0 {
		panic("matrix: Mu of negative time")
	}
	w := int64(s.Window)
	r := sigma % w
	if r == 0 {
		return sigma
	}
	return sigma + w - r
}

// RowResidence returns m_i = c·2^i·log n·log log n, the number of slots a
// station spends scanning row i (1-based). m_0 = 0 by the paper's
// convention; callers pass i in [1, Rows].
func (s Spec) RowResidence(i int) int64 {
	if i < 1 || i > s.Rows {
		panic(fmt.Sprintf("matrix: row %d out of [1,%d]", i, s.Rows))
	}
	return int64(s.C) * mathx.Pow2(i) * int64(s.Rows) * int64(s.Window)
}

// RowEntry returns the global slot at which a station operative since slot
// `op` enters row i: op + m_1 + … + m_{i-1}.
func (s Spec) RowEntry(op int64, i int) int64 {
	if i < 1 || i > s.Rows {
		panic(fmt.Sprintf("matrix: row %d out of [1,%d]", i, s.Rows))
	}
	e := op
	for r := 1; r < i; r++ {
		e += s.RowResidence(r)
	}
	return e
}

// CycleLength returns m_1 + … + m_Rows, the span of one full scan of all
// rows. A station that exhausts all rows without hearing success restarts
// from row 1 (the protocol is total; with ≤ n awake stations Theorem 5.3
// guarantees success long before a restart).
func (s Spec) CycleLength() int64 {
	var total int64
	for i := 1; i <= s.Rows; i++ {
		total += s.RowResidence(i)
	}
	return total
}

// RowAt returns the row a station operative since slot `op` scans at slot
// t >= op, looping over the row cycle. The second return value is the slot
// at which that row was entered (used by trace rendering).
func (s Spec) RowAt(op, t int64) (row int, entered int64) {
	if t < op {
		panic("matrix: RowAt before operative slot")
	}
	off := (t - op) % s.CycleLength()
	base := t - off // conceptual entry of this cycle's row 1... adjusted below
	for i := 1; i <= s.Rows; i++ {
		m := s.RowResidence(i)
		if off < m {
			return i, base
		}
		off -= m
		base += m
	}
	panic("matrix: RowAt fell off the row cycle") // unreachable
}

// Member reports whether station id belongs to entry M_{i, t mod ℓ}:
// membership probability 2^{-(i+ρ)}, keyed by (Seed, i, t mod ℓ, id).
// All stations consulting the same (row, slot) agree — the "vertically
// aligned" property of §5.2 / Figure 2.
func (s Spec) Member(i int, t int64, id int) bool {
	if i < 1 || i > s.Rows {
		panic(fmt.Sprintf("matrix: row %d out of [1,%d]", i, s.Rows))
	}
	if t < 0 {
		panic("matrix: negative slot")
	}
	if id < 1 || id > s.N {
		panic(fmt.Sprintf("matrix: station %d out of [1,%d]", id, s.N))
	}
	j := t % s.Length()
	return s.MemberColumn(i, j, s.Rho(j), id)
}

// MemberColumn is Member at column j = t mod ℓ with rho = ρ(j) supplied by
// the caller, for a cursor that carries both from slot to slot instead of
// dividing on every query. It checks nothing: the caller keeps i in
// [1, Rows], j in [0, ℓ), rho == ρ(j) and id in [1, N].
func (s Spec) MemberColumn(i int, j int64, rho int, id int) bool {
	return MemberKey(s.ColumnKey(i, j), i+rho, id)
}

// ColumnKey is the hash key of entry M_{i,j} (j = t mod ℓ), the part of
// every membership query of that entry that does not read the station: all
// stations scanning row i at column j share it. It checks nothing.
func (s Spec) ColumnKey(i int, j int64) uint64 {
	return rng.Hash3Head(s.Seed, uint64(i), uint64(j))
}

// MemberKey reports whether id belongs to the entry whose ColumnKey is key,
// where e = i + ρ(j) is that entry's exponent: membership probability 2^-e.
func MemberKey(key uint64, e int, id int) bool {
	return rng.Below(rng.Hash3Tail(key, uint64(id)), e)
}

// Materialize builds the explicit sets M_{i,j} for j in [0, cols) as
// id-slices, for verification and rendering on small universes.
func (s Spec) Materialize(cols int64) [][][]int {
	if cols < 1 || cols > s.Length() {
		panic("matrix: Materialize cols out of range")
	}
	if int64(s.N)*cols*int64(s.Rows) > 1<<28 {
		panic("matrix: refusing to materialize a huge matrix")
	}
	out := make([][][]int, s.Rows)
	for i := 1; i <= s.Rows; i++ {
		out[i-1] = make([][]int, cols)
		for j := int64(0); j < cols; j++ {
			var set []int
			for id := 1; id <= s.N; id++ {
				if s.Member(i, j, id) {
					set = append(set, id)
				}
			}
			out[i-1][j] = set
		}
	}
	return out
}
