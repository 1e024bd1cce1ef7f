package core

import (
	"math"

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

// BuildAdaptive implements model.Adaptive.
func (TreeCD) BuildAdaptive(p model.Params, id int, wake int64, _ *rng.Source) model.AdaptiveStation {
	return newTreeStation(p, id)
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

type treeStation struct {
	id      int
	n       int32
	stack   []run
	retired bool // retire after own success so RunAll terminates
}

func newTreeStation(p model.Params, id int) *treeStation {
	if p.N > math.MaxInt32 {
		panic("core: tree_cd supports n up to 2^31-1")
	}
	st := &treeStation{id: id, n: int32(p.N)}
	st.push(1, st.n)
	return st
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

// WillTransmit implements model.AdaptiveStation.
func (s *treeStation) WillTransmit(t int64) bool {
	if s.retired || len(s.stack) == 0 {
		return false
	}
	return s.holds(s.stack[len(s.stack)-1])
}

// Observe implements model.AdaptiveStation: identical transition on every
// station, which is what keeps the replicated stacks in lockstep.
func (s *treeStation) Observe(t int64, fb model.Feedback, successID int) {
	if len(s.stack) == 0 {
		return
	}
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
