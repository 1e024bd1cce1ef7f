// Package schedule provides the slot-parity interleaving combinator of
// paper §3: "one can execute round-robin in odd rounds and the other
// algorithm in even rounds". Interleaving two algorithms yields an
// algorithm whose worst-case wake-up time is (twice) the minimum of its
// components' — the mechanism by which wakeup_with_s and wakeup_with_k
// reach Θ(k log(n/k) + 1) across the whole range of k.
//
// Each component runs on its own "component clock": global slots of its
// parity, renumbered 0, 1, 2, …. Wake times are mapped to the first
// component slot at or after the global wake. The mapping coarsens wake
// times by at most one global slot, which only merges near-simultaneous
// joiners into the same component batch and never delays a station past a
// slot it could legally use.
package schedule

import (
	"fmt"
	"slices"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// FirstAtOrAfter returns the smallest t' >= t with t' ≡ parity (mod 2).
// parity must be 0 or 1; t must be >= 0.
func FirstAtOrAfter(t int64, parity int64) int64 {
	if parity != 0 && parity != 1 {
		panic("schedule: parity must be 0 or 1")
	}
	if t < 0 {
		panic("schedule: negative time")
	}
	if t%2 == parity {
		return t
	}
	return t + 1
}

// ComponentIndex maps a global slot t of the given parity to its component
// clock index (t - parity) / 2.
func ComponentIndex(t int64, parity int64) int64 {
	if t%2 != parity {
		panic(fmt.Sprintf("schedule: slot %d does not have parity %d", t, parity))
	}
	return (t - parity) / 2
}

// GlobalIndex is the inverse of ComponentIndex: component index c of the
// given parity occupies global slot 2c + parity.
func GlobalIndex(c int64, parity int64) int64 {
	if parity != 0 && parity != 1 {
		panic("schedule: parity must be 0 or 1")
	}
	if c < 0 {
		panic("schedule: negative component index")
	}
	return 2*c + parity
}

// MapParams rewrites knowledge parameters into a component clock: a known
// global start S becomes the component index of the first component slot at
// or after S. N, K and Seed pass through (Seed is re-derived by the caller
// so components draw independent randomness).
func MapParams(p model.Params, parity int64, seed uint64) model.Params {
	q := p
	q.Seed = seed
	if p.KnowsS() {
		q.S = ComponentIndex(FirstAtOrAfter(p.S, parity), parity)
	}
	return q
}

// Interleaved runs Even on even global slots and Odd on odd global slots.
type Interleaved struct {
	name string
	even model.Algorithm
	odd  model.Algorithm
}

// NewInterleaved builds the combinator. The conventional order in the paper
// is Interleave(round-robin, X): round-robin on even slots, X on odd slots;
// either order preserves the asymptotics.
func NewInterleaved(name string, even, odd model.Algorithm) *Interleaved {
	if even == nil || odd == nil {
		panic("schedule: nil component algorithm")
	}
	return &Interleaved{name: name, even: even, odd: odd}
}

// Name implements model.Algorithm.
func (il *Interleaved) Name() string { return il.name }

// Even returns the even-slot component (for tests and ablations).
func (il *Interleaved) Even() model.Algorithm { return il.even }

// Odd returns the odd-slot component.
func (il *Interleaved) Odd() model.Algorithm { return il.odd }

// Build implements model.Algorithm by building both component schedules on
// their component clocks and dispatching on slot parity.
func (il *Interleaved) Build(p model.Params, id int, wake int64, src *rng.Source) model.TransmitFunc {
	evenParams := MapParams(p, 0, rng.Derive(p.Seed, 0xe0))
	oddParams := MapParams(p, 1, rng.Derive(p.Seed, 0x0d))

	evenWake := ComponentIndex(FirstAtOrAfter(wake, 0), 0)
	oddWake := ComponentIndex(FirstAtOrAfter(wake, 1), 1)

	var evenSrc, oddSrc *rng.Source
	if src != nil {
		// Both child streams live in one allocation; the even one draws
		// first.
		children := new([2]rng.Source)
		children[0].Reseed(rng.Derive(src.Uint64(), 0xe0))
		children[1].Reseed(rng.Derive(src.Uint64(), 0x0d))
		evenSrc, oddSrc = &children[0], &children[1]
	}
	fe := il.even.Build(evenParams, id, evenWake, evenSrc)
	fo := il.odd.Build(oddParams, id, oddWake, oddSrc)

	return func(t int64) bool {
		if t%2 == 0 {
			c := ComponentIndex(t, 0)
			if c < evenWake {
				return false
			}
			return fe(c)
		}
		c := ComponentIndex(t, 1)
		if c < oddWake {
			return false
		}
		return fo(c)
	}
}

// Cohort implements model.Batched by composing one cohort per component,
// each on its component clock: a Batched component's own, and the closure
// adapter model.BuildCohort for any other. The component params are mapped
// once per run.
func (il *Interleaved) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	c, _ := prev.(*interleavedCohort)
	if c == nil {
		c = new(interleavedCohort)
	}
	c.even.reset(il.even, MapParams(p, 0, rng.Derive(p.Seed, 0xe0)))
	c.odd.reset(il.odd, MapParams(p, 1, rng.Derive(p.Seed, 0x0d)))
	c.ids = c.ids[:0]
	c.pending = deferredJoin{}
	return c
}

// interleavedCohort is Interleaved's model.Cohort: global slot t asks the
// component of t's parity about component slot t/2. A station joins both
// components at once, each at its first component slot at or after the
// global wake, except an injected one (see JoinAt).
type interleavedCohort struct {
	even, odd component
	ids       []int // every station in join order
	pending   deferredJoin
	held      rng.Source // the pending station's child stream, when its component keeps none
}

// component is one side of the interleaving.
type component struct {
	cohort   model.Cohort
	closures model.BuildCohort
	src      rng.Source // the child stream of the station joining a cohort that keeps none
}

// reset readies the component's cohort for a run of a with params p,
// reusing the last one.
func (s *component) reset(a model.Algorithm, p model.Params) {
	if b, ok := a.(model.Batched); ok {
		s.cohort = b.Cohort(p, s.cohort)
		return
	}
	s.closures.Reset(a, p, 0)
	s.cohort = &s.closures
}

// keeps reports whether the cohort is Build closures, which may keep their
// streams.
func (s *component) keeps() bool { return s.cohort == &s.closures }

// deferredJoin is an injected station that has yet to join the component
// whose slot comes next: at global slot at, at position i of the join
// order, with child stream src. id 0: none.
type deferredJoin struct {
	at  int64
	i   int
	id  int
	src *rng.Source
}

// children draws the station's two child streams from src as Build does,
// the even one first. A component whose closures may keep their stream
// gets a stream of the station's own; any other, the component's reused
// one.
func (c *interleavedCohort) children(src *rng.Source) (even, odd *rng.Source) {
	if src == nil {
		return nil, nil
	}
	even, odd = &c.even.src, &c.odd.src
	if c.even.keeps() || c.odd.keeps() {
		children := new([2]rng.Source)
		even, odd = &children[0], &children[1]
	}
	even.Reseed(rng.Derive(src.Uint64(), 0xe0))
	odd.Reseed(rng.Derive(src.Uint64(), 0x0d))
	return even, odd
}

// Join implements model.Cohort.
func (c *interleavedCohort) Join(id int, wake int64, src *rng.Source) {
	evenSrc, oddSrc := c.children(src)
	c.even.cohort.Join(id, (wake+1)/2, evenSrc)
	c.odd.cohort.Join(id, wake/2, oddSrc)
	c.ids = append(c.ids, id)
}

// JoinAt implements model.Cohort. The station joins the component of its
// wake slot's parity there. The other component was last asked about a
// slot before the station's wake, so the station joins it, through JoinAt
// too, at that component's next slot, the next global slot, after its
// Transmitters.
func (c *interleavedCohort) JoinAt(i, id int, wake int64, src *rng.Source) bool {
	if c.pending.id != 0 {
		panic("schedule: an injection before the previous one joined both components")
	}
	evenSrc, oddSrc := c.children(src)
	now, later, nowSrc, laterSrc := &c.even, &c.odd, evenSrc, oddSrc
	if wake%2 == 1 {
		now, later, nowSrc, laterSrc = &c.odd, &c.even, oddSrc, evenSrc
	}
	if laterSrc != nil && !later.keeps() {
		// The component's reused stream is the next joiner's: hold a copy.
		c.held = *laterSrc
		laterSrc = &c.held
	}
	c.ids = slices.Insert(c.ids, i, id)
	c.pending = deferredJoin{at: wake + 1, i: i, id: id, src: laterSrc}
	return now.cohort.JoinAt(i, id, wake/2, nowSrc)
}

// Transmitters implements model.Cohort.
func (c *interleavedCohort) Transmitters(t int64, dst []int) []int {
	part := &c.even
	if t%2 == 1 {
		part = &c.odd
	}
	first := len(dst)
	dst = part.cohort.Transmitters(t/2, dst)
	if c.pending.id != 0 && c.pending.at == t {
		dst = c.joinPending(part, t/2, first, dst)
	}
	return dst
}

// joinPending joins the deferred station to part at component slot u, the
// slot part was just asked about, and places its transmission, if any,
// among that slot's transmitters dst[first:] in join order.
func (c *interleavedCohort) joinPending(part *component, u int64, first int, dst []int) []int {
	d := c.pending
	c.pending = deferredJoin{}
	if !part.cohort.JoinAt(d.i, d.id, u, d.src) {
		return dst
	}
	after := c.ids[d.i+1:]
	j := len(dst)
	for j > first && slices.Contains(after, dst[j-1]) {
		j--
	}
	return slices.Insert(dst, j, d.id)
}

// Next implements model.Cohort: the earlier of the components' next
// attempts on the global clock, or from while a deferred join is pending,
// so that its slot is asked about.
func (c *interleavedCohort) Next(from int64) int64 {
	if c.pending.id != 0 {
		return from
	}
	return min(global(c.even.cohort.Next((from+1)/2), 0), global(c.odd.cohort.Next(from/2), 1))
}

// global is GlobalIndex(u, parity), or model.Never when u is.
func global(u int64, parity int64) int64 {
	if u >= model.Never/2 {
		return model.Never
	}
	return 2*u + parity
}
