package core

import (
	"fmt"

	"nsmac/internal/matrix"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// WakeupC is the §5 algorithm wakeup(n) for Scenario C: no knowledge of s
// or k. Every station holds the same (log n × ℓ) waking matrix M; a station
// woken at σ becomes operative at µ(σ) (the next window boundary), then
// scans row 1 for m_1 slots, row 2 for m_2 slots, …, transmitting in slot t
// iff it belongs to M_{row, t mod ℓ} (Protocol wakeup(u,σ), §5.1).
//
// Theorem 5.3: the first success occurs within O(k log n log log n) slots
// of the first wake-up. The matrix is the §5.3 random construction keyed by
// the run seed (DESIGN.md §4 substitution 2); a station that exhausts all
// rows restarts from row 1, which Theorem 5.3 guarantees is unreachable for
// any k ≤ n workload.
type WakeupC struct {
	// C is the protocol constant c (0 = matrix.DefaultC). Residence times
	// and the matrix length scale linearly with it; T8c sweeps it.
	C int
	// DisableWindowWait makes stations operative immediately at their wake
	// slot instead of at µ(σ) (ablation T8b: breaks property P1, the
	// within-window stability the analysis builds on).
	DisableWindowWait bool
}

// NewWakeupC returns the Scenario C algorithm with the default constant.
func NewWakeupC() *WakeupC { return &WakeupC{} }

// Name implements model.Algorithm.
func (a *WakeupC) Name() string {
	if a.DisableWindowWait {
		return "wakeup(n)(no-window-wait)"
	}
	if a.C > 0 && a.C != matrix.DefaultC {
		return fmt.Sprintf("wakeup(n)(c=%d)", a.C)
	}
	return "wakeup(n)"
}

// c returns the effective protocol constant.
func (a *WakeupC) c() int {
	if a.C > 0 {
		return a.C
	}
	return matrix.DefaultC
}

// Spec exposes the matrix geometry this algorithm derives from params —
// shared with trace rendering (F1/F2) and the matrix-level tests.
func (a *WakeupC) Spec(p model.Params) matrix.Spec {
	return matrix.NewSpec(p.N, a.c(), rng.Derive(p.Seed, 0xc0de))
}

// Build implements model.Algorithm. The returned schedule is logically the
// pure function "id ∈ M_{row(t), t mod ℓ}"; internally it keeps a cursor
// because the engine queries slots in increasing order: a query for the
// slot after the last one advances the row, the column t mod ℓ and ρ by
// one step, and any other query re-seeks through RowAt, so arbitrary
// callers still observe the pure semantics.
func (a *WakeupC) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	spec := a.Spec(p)
	op := spec.Mu(wake)
	if a.DisableWindowWait {
		op = wake
	}
	c := wakeupCursor{spec: spec, op: op, ell: spec.Length()}
	return func(t int64) bool {
		if t < c.op {
			return false
		}
		return c.member(t, id)
	}
}

// FirstWaker implements model.WakeProber: off a window boundary every
// station woken there is silent until µ(σ), so nobody qualifies; on it (or
// with the wait disabled) a station scans row 1 from its wake slot, so the
// answer is the first untaken member of that column.
func (a *WakeupC) FirstWaker(p model.Params, wake int64, _ uint64, taken []bool) int {
	spec := a.Spec(p)
	if !a.DisableWindowWait && spec.Mu(wake) != wake {
		return 0
	}
	col := wake % spec.Length()
	rho := spec.Rho(col)
	for id := 1; id <= p.N; id++ {
		if !taken[id] && spec.MemberColumn(1, col, rho, id) {
			return id
		}
	}
	return 0
}

// wakeupCursor is a WakeupC station's position in its row scan. It is one
// struct so that the closure Build returns moves one object to the heap,
// not one per cursor field.
type wakeupCursor struct {
	spec   matrix.Spec
	op     int64 // operative slot µ(σ)
	ell    int64 // ℓ, the column count
	row    int   // row scanned at slot last; 0 = not positioned
	rowEnd int64 // first slot after that row's residence
	last   int64 // last slot queried
	col    int64 // last mod ℓ
	rho    int   // ρ(col)
}

// member reports whether id transmits at slot t >= op.
func (c *wakeupCursor) member(t int64, id int) bool {
	switch {
	case c.row != 0 && t == c.last+1:
		c.col++
		if c.col == c.ell {
			c.col = 0
		}
		c.rho++
		if c.rho == c.spec.Window {
			c.rho = 0
		}
		if t == c.rowEnd {
			c.row++
			if c.row > c.spec.Rows {
				c.row = 1
			}
			c.rowEnd = t + c.spec.RowResidence(c.row)
		}
	case c.row == 0 || t != c.last:
		row, entered := c.spec.RowAt(c.op, t)
		c.row, c.rowEnd = row, entered+c.spec.RowResidence(row)
		c.col = t % c.ell
		c.rho = c.spec.Rho(c.col)
	}
	c.last = t
	return c.spec.MemberColumn(c.row, c.col, c.rho, id)
}

// Horizon implements Bounded. Theorem 5.3 bounds the wake-up time by
// 2c·k·log n·log log n plus the initial window wait; the guard allows 16×
// that plus slack, so a failure within the horizon indicts the construction
// rather than the cap.
func (a *WakeupC) Horizon(n, k int) int64 {
	spec := matrix.NewSpec(n, a.c(), 0)
	theorem := 2 * int64(spec.C) * int64(k) * int64(spec.Rows) * int64(spec.Window)
	return 16*theorem + 4*int64(spec.Window) + 64
}
