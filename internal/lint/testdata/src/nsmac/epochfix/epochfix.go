// Package epochfix seeds the stale-epoch-render regression: an EpochStation
// whose feedback observer mutates a receiver field that RenderWord never
// consults, so the kernel would scan a word the station's state does not
// back.
package epochfix

import "nsmac/internal/model"

// StaleRender moves depth on feedback but renders only from retired: the
// epoch word ignores the state feedback moves.
type StaleRender struct {
	retired bool
	depth   int
}

func (s *StaleRender) RenderWord(from int64) uint64 { // want "never consults field\\(s\\) depth mutated by its feedback observer"
	if s.retired {
		return 0
	}
	return ^uint64(0)
}

func (s *StaleRender) Observe(t int64, fb model.Feedback, successID int) {
	switch fb {
	case model.Collision:
		s.depth++
	case model.Silence:
		s.depth--
	case model.Success:
		s.retired = true
	}
}

// DelegatingRender funnels part of Observe through a same-type helper and
// renders every mutated field; no diagnostic — including the pos write made
// only by the helper.
type DelegatingRender struct {
	retired bool
	depth   int
	pos     int64
}

func (s *DelegatingRender) RenderWord(from int64) uint64 {
	if s.retired || s.pos > from {
		return 0
	}
	return ^uint64(0) >> uint(s.depth&63)
}

func (s *DelegatingRender) Observe(t int64, fb model.Feedback, successID int) {
	if fb == model.Collision {
		s.depth++
	}
	if fb == model.Success {
		s.retired = true
	}
	s.advance(t)
}

func (s *DelegatingRender) advance(t int64) { s.pos = t + 1 }

// InertRender observes without mutating anything; no diagnostic.
type InertRender struct {
	id int
}

func (s *InertRender) RenderWord(from int64) uint64              { return 1 << uint(s.id&63) }
func (s *InertRender) Observe(t int64, fb model.Feedback, _ int) {}

// PlainRenderer has a RenderWord but no feedback observer at all — not an
// epoch station; no diagnostic.
type PlainRenderer struct {
	hidden int
}

func (s *PlainRenderer) RenderWord(from int64) uint64 { return uint64(from) }
func (s *PlainRenderer) SetHidden(v int)              { s.hidden = v }
