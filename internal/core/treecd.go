package core

import (
	"math"
	"math/bits"
	"slices"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// TreeCD is the classic Capetanakis/Hayes/Tsybakov binary-splitting
// contention-resolution algorithm, the standard contrast model the paper's
// introduction cites (§1, ref [4]). It REQUIRES collision detection — run it
// with Options.Channel = model.CD() (or the richer regimes that still
// deliver collisions to listeners) — and simultaneous wake-up: every awake
// station replays the same depth-first
// traversal of the ID-interval tree driven solely by the broadcast
// feedback, so all stations' stacks stay identical.
//
// Per slot, the stations whose IDs lie in the top interval transmit:
//
//	success / silence → pop (interval resolved or empty);
//	collision         → pop and split into halves, left processed first.
//
// The first success resolves wake-up in O(k(1 + log(n/k))) slots; run to
// completion it enumerates all k stations (usable with RunAll).
//
// Without listener collision detection the stacks fall out of lockstep. On
// sender_cd, where only senders hear a collision and listeners hear
// silence, the stations soon each hold their own singleton on top, and two
// or more of them then collide in every slot: tree_cd livelocks there and
// fails almost every trial from k = 16 on. Such a fleet is looping
// (model.Fleet.Looping), and the engine finishes the livelocked trial
// without stepping it.
type TreeCD struct{}

// NewTreeCD returns the collision-detection tree algorithm.
func NewTreeCD() TreeCD { return TreeCD{} }

// Name implements model.Algorithm.
func (TreeCD) Name() string { return "tree_cd" }

// Build implements model.Algorithm. TreeCD is feedback-driven; the
// non-adaptive entry point cannot express it.
func (TreeCD) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	panic("core: tree_cd is adaptive; run it with Options.Adaptive and the cd channel model")
}

// Fleet implements model.Adaptive. The fleet's station records, stacks
// included, outlive their run, so a warm fleet allocates nothing.
func (TreeCD) Fleet(p model.Params, prev model.Fleet) model.Fleet {
	if p.N > math.MaxInt32 {
		panic("core: tree_cd supports n up to 2^31-1")
	}
	f, _ := prev.(*treeFleet)
	if f == nil {
		f = new(treeFleet)
	}
	f.n, f.st = int32(p.N), f.st[:0]
	return f
}

// Persistent implements model.Persistent: a fresh station's stack is
// [1, n], which holds every ID, and silence only pops it, refilling it with
// [1, n] once empty, so a station that hears only silence transmits in every
// slot.
func (TreeCD) Persistent() {}

// Horizon implements Bounded: the traversal visits at most 2k-1 collision
// nodes and at most 2k(log n + 1) + 1 total nodes; 4× covers the
// constant-factor slack of ragged trees.
func (TreeCD) Horizon(n, k int) int64 {
	logN := int64(1)
	for v := n; v > 1; v >>= 1 {
		logN++
	}
	return 8*int64(k)*(logN+1) + 16
}

// run is count consecutive copies of the ID interval [lo, hi] on a tree
// station's stack. Equal intervals pile up when a station keeps colliding on
// its own singleton [x, x] — under sender_cd it pushes the empty [x+1, x]
// every slot — so run-length encoding keeps the stack at O(log n) entries
// however long the trial runs.
type run struct{ lo, hi, count int32 }

// treeFleet is one tree_cd run's stations, in join order.
type treeFleet struct {
	n  int32
	st []treeStation
}

// treeStation is one station's replica of the traversal.
type treeStation struct {
	id      int
	n       int32
	stack   []run
	retired bool // retire after own success so RunAll terminates
	sent    bool // transmitted in the last slot asked about
}

// Join implements model.Cohort. The new record reuses the stack of the
// record that held its place in an earlier run.
func (f *treeFleet) Join(id int, _ int64, _ *rng.Source) {
	f.st = slices.Grow(f.st, 1)[:len(f.st)+1]
	f.st[len(f.st)-1].reset(id, f.n)
}

// JoinAt implements model.Cohort.
func (f *treeFleet) JoinAt(i, id int, _ int64, _ *rng.Source) bool {
	f.st = slices.Insert(f.st, i, treeStation{})
	s := &f.st[i]
	s.reset(id, f.n)
	s.sent = s.transmits()
	return s.sent
}

// Transmitters implements model.Cohort.
func (f *treeFleet) Transmitters(_ int64, dst []int) []int {
	for i := range f.st {
		s := &f.st[i]
		if s.sent = s.transmits(); s.sent {
			dst = append(dst, s.id)
		}
	}
	return dst
}

// Next implements model.Cohort: the stations advance by one slot per call.
func (f *treeFleet) Next(from int64) int64 { return from }

// Observe implements model.Fleet.
func (f *treeFleet) Observe(_ int64, d model.Delivery) {
	for i := range f.st {
		s := &f.st[i]
		s.hear(d.For(s.sent, s.id))
	}
}

// Looping implements model.Fleet.
func (f *treeFleet) Looping() bool {
	for i := range f.st {
		if !f.st[i].looping() {
			return false
		}
	}
	return true
}

// reset makes s a fresh station id of universe n: its stack is [1, n]. The
// stack holds at most one pending right sibling per level of the halving
// tree above the singletons, one run of the empty intervals below them and
// the top, so bits.Len(n)+2 entries never need to grow.
func (s *treeStation) reset(id int, n int32) {
	if depth := bits.Len32(uint32(n)) + 2; cap(s.stack) < depth {
		s.stack = make([]run, 0, depth)
	}
	*s = treeStation{id: id, n: n, stack: s.stack[:0]}
	s.push(1, n)
}

// push puts [lo, hi] on top of the stack.
func (s *treeStation) push(lo, hi int32) {
	if d := len(s.stack); d > 0 {
		if top := &s.stack[d-1]; top.lo == lo && top.hi == hi && top.count < math.MaxInt32 {
			top.count++
			return
		}
	}
	s.stack = append(s.stack, run{lo, hi, 1})
}

// pop removes the top interval and returns it.
func (s *treeStation) pop() (lo, hi int32) {
	top := &s.stack[len(s.stack)-1]
	lo, hi = top.lo, top.hi
	if top.count--; top.count == 0 {
		s.stack = s.stack[:len(s.stack)-1]
	}
	return lo, hi
}

// holds reports whether the station's ID lies in r's interval.
func (s *treeStation) holds(r run) bool {
	return s.id >= int(r.lo) && s.id <= int(r.hi)
}

// transmits reports whether the station transmits in its next slot.
func (s *treeStation) transmits() bool {
	return !s.retired && s.holds(s.stack[len(s.stack)-1])
}

// looping reports whether the station loops: its top interval is its own
// singleton [id, id], so it transmits, and on hearing Collision pops it and
// pushes [id+1, id] and [id, id], so its top is [id, id] again.
func (s *treeStation) looping() bool {
	top := s.stack[len(s.stack)-1]
	return !s.retired && int(top.lo) == s.id && int(top.hi) == s.id
}

// hear applies one slot's feedback: the identical transition on every
// station, which is what keeps the replicated stacks in lockstep.
func (s *treeStation) hear(fb model.Feedback, successID int) {
	lo, hi := s.pop()
	switch fb {
	case model.Collision:
		mid := int32((int64(lo) + int64(hi)) / 2)
		// Push right half first so the left half is processed next.
		s.push(mid+1, hi)
		s.push(lo, mid)
	case model.Success:
		if successID == s.id {
			s.retired = true
		}
	case model.Silence:
		// Interval empty: nothing more to do.
	}
	// When the stack empties every awake station has been enumerated; the
	// traversal restarts so late workloads (or RunAll re-runs) stay live.
	if len(s.stack) == 0 {
		s.push(1, s.n)
	}
}
