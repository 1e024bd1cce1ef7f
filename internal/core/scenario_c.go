package core

import (
	"fmt"
	"slices"

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
// the run seed (README "Departures from the paper", item 2); a station that exhausts all
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
	key, e := spec.ColumnKey(1, col), 1+spec.Rho(col)
	for id := 1; id <= p.N; id++ {
		if !taken[id] && matrix.MemberKey(key, e, id) {
			return id
		}
	}
	return 0
}

// Cohort implements model.Batched: one flat slice of the joined stations'
// row scans. Stations scanning the same row at slot t read the same column
// t mod ℓ (the vertical alignment of §5.2), so a slot computes the column,
// ρ and each scanned row's column key once, and an operative station then
// costs one hash and one threshold test. The matrix geometry is derived
// once per trial, here, not once per station.
func (a *WakeupC) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	c, ok := prev.(*wakeupCohort)
	if !ok {
		c = new(wakeupCohort)
	}
	c.spec = a.Spec(p)
	c.ell = c.spec.Length()
	c.wait = !a.DisableWindowWait
	c.stations = c.stations[:0]
	c.keys = slices.Grow(c.keys[:0], c.spec.Rows+1)[:c.spec.Rows+1]
	for i := range c.keys {
		c.keys[i].at = -1
	}
	c.last = -2 // no slot yet: the first query seeks
	return c
}

// wakeupCohort is WakeupC's model.Cohort: the joined stations in join
// order, the column of the slot last asked about, and the column keys
// computed for that slot.
type wakeupCohort struct {
	spec     matrix.Spec
	ell      int64 // ℓ, the column count
	wait     bool  // stations wait for the window boundary µ(σ)
	stations []wakeupStation
	keys     []columnKey // indexed by row; keys[row].at == last when valid
	last     int64       // the slot last asked about
	col      int64       // last mod ℓ
	rho      int         // ρ(col)
}

// wakeupStation is one station's row scan: the row it scans and the first
// slot after that row's residence.
type wakeupStation struct {
	id     int
	op     int64 // operative slot µ(σ), or σ without the window wait
	row    int
	rowEnd int64
}

// columnKey is a row's matrix.Spec.ColumnKey at the column of slot at.
type columnKey struct {
	at  int64
	key uint64
}

// station is station id, woken at wake, positioned at the start of row 1.
func (c *wakeupCohort) station(id int, wake int64) wakeupStation {
	op := wake
	if c.wait {
		op = c.spec.Mu(wake)
	}
	return wakeupStation{id: id, op: op, row: 1, rowEnd: op + c.spec.RowResidence(1)}
}

// Join implements model.Cohort. Build draws nothing from the stream, and
// neither does the join.
func (c *wakeupCohort) Join(id int, wake int64, _ *rng.Source) {
	c.stations = append(c.stations, c.station(id, wake))
}

// JoinAt implements model.Cohort: a station that is operative at its wake
// slot scans row 1 there.
func (c *wakeupCohort) JoinAt(i, id int, wake int64, _ *rng.Source) bool {
	st := c.station(id, wake)
	c.stations = slices.Insert(c.stations, i, st)
	if st.op != wake {
		return false
	}
	c.seek(wake)
	return matrix.MemberKey(c.key(1, wake), 1+c.rho, id)
}

// Transmitters implements model.Cohort.
func (c *wakeupCohort) Transmitters(t int64, dst []int) []int {
	c.seek(t)
	for i := range c.stations {
		st := &c.stations[i]
		if t < st.op {
			continue
		}
		if t >= st.rowEnd {
			c.advance(st, t)
		}
		if matrix.MemberKey(c.key(st.row, t), st.row+c.rho, st.id) {
			dst = append(dst, st.id)
		}
	}
	return dst
}

// Next implements model.Cohort: the matrix names no attempt ahead of time,
// so the cohort is asked about every slot.
func (c *wakeupCohort) Next(from int64) int64 { return from }

// seek sets the column and ρ to slot t's: one step from the slot before,
// a division otherwise.
func (c *wakeupCohort) seek(t int64) {
	switch t {
	case c.last:
		return
	case c.last + 1:
		if c.col++; c.col == c.ell {
			c.col = 0
		}
		if c.rho++; c.rho == c.spec.Window {
			c.rho = 0
		}
	default:
		c.col = t % c.ell
		c.rho = c.spec.Rho(c.col)
	}
	c.last = t
}

// key returns row's column key at slot t, the slot last sought.
func (c *wakeupCohort) key(row int, t int64) uint64 {
	k := &c.keys[row]
	if k.at != t {
		k.at, k.key = t, c.spec.ColumnKey(row, c.col)
	}
	return k.key
}

// advance moves st to the row it scans at slot t >= st.rowEnd: the next
// row, wrapping to row 1 after the last, when t ends the current one, and
// a seek through the row cycle otherwise.
func (c *wakeupCohort) advance(st *wakeupStation, t int64) {
	if t == st.rowEnd {
		if st.row++; st.row > c.spec.Rows {
			st.row = 1
		}
		st.rowEnd = t + c.spec.RowResidence(st.row)
		return
	}
	row, entered := c.spec.RowAt(st.op, t)
	st.row, st.rowEnd = row, entered+c.spec.RowResidence(row)
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
