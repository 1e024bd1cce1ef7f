package core

import (
	"math/bits"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// sliceTree is the plain-slice reference tree station: one stack entry per
// interval, the splitting rule with no run-length encoding.
type sliceTree struct {
	id, n   int
	stack   [][2]int
	retired bool
}

func newSliceTree(n, id int) *sliceTree {
	return &sliceTree{id: id, n: n, stack: [][2]int{{1, n}}}
}

func (s *sliceTree) willTransmit() bool {
	top := s.stack[len(s.stack)-1]
	return !s.retired && s.id >= top[0] && s.id <= top[1]
}

func (s *sliceTree) observe(fb model.Feedback, successID int) {
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	switch fb {
	case model.Collision:
		mid := (top[0] + top[1]) / 2
		s.stack = append(s.stack, [2]int{mid + 1, top[1]}, [2]int{top[0], mid})
	case model.Success:
		if successID == s.id {
			s.retired = true
		}
	}
	if len(s.stack) == 0 {
		s.stack = append(s.stack, [2]int{1, s.n})
	}
}

// silenceWord renders the reference's next 64 slots from local slot from
// (slot 0 = the next slot it observes) by observing silence on a copy.
func (s *sliceTree) silenceWord(from int64) uint64 {
	cp := *s
	cp.stack = append([][2]int(nil), s.stack...)
	var w uint64
	for l := int64(0); l < from+64; l++ {
		if l >= from && cp.willTransmit() {
			w |= 1 << uint(l-from)
		}
		cp.observe(model.Silence, 0)
	}
	return w
}

// TestTreeStationRunStackMatchesSlice drives run-length tree stations and
// plain-slice references through random per-slot feedback — collisions,
// silences and successes, delivered per role as cd or sender_cd would — and
// requires WillTransmit to agree at every slot. Every few slots it also
// checks RenderWord against the reference's silence projection, so the run
// walk is exercised on deep, many-run stacks, not just fresh ones.
func TestTreeStationRunStackMatchesSlice(t *testing.T) {
	src := rng.New(0x7ee5)
	for round := 0; round < 120; round++ {
		n := 1 + src.Intn(100)
		k := 1 + src.Intn(min(n, 8))
		ids := src.Sample(n, k)
		ch := model.CD()
		if round%2 == 1 {
			ch = model.SenderCD()
		}
		sts := make([]*treeStation, k)
		refs := make([]*sliceTree, k)
		for i, id := range ids {
			sts[i] = newTreeStation(model.Params{N: n}, id)
			refs[i] = newSliceTree(n, id)
		}
		for slot := int64(0); slot < 300; slot++ {
			for i := range sts {
				if got, want := sts[i].WillTransmit(slot), refs[i].willTransmit(); got != want {
					t.Fatalf("round %d (%s, n=%d) slot %d station %d: WillTransmit %v, reference %v",
						round, ch.Name(), n, slot, ids[i], got, want)
				}
				if slot%7 == 0 && !refs[i].retired {
					for _, from := range []int64{-9, 0, 5, 64} {
						// Bits before local slot 0 are unspecified.
						mask := ^uint64(0) << uint(max(0, -from))
						if got, want := sts[i].RenderWord(from), refs[i].silenceWord(from); got&mask != want&mask {
							t.Fatalf("round %d slot %d station %d: RenderWord(%d) = %#x, silence projection %#x",
								round, slot, ids[i], from, got, want)
						}
					}
				}
			}
			// Collisions dominate so the stacks grow deep.
			truth := model.Collision
			switch src.Intn(4) {
			case 0:
				truth = model.Silence
			case 1:
				truth = model.Success
			}
			winner := 0
			if truth == model.Success {
				winner = ids[src.Intn(k)]
			}
			for i, id := range ids {
				sent := refs[i].willTransmit()
				fb := ch.Deliver(truth, sent, sent && id == winner)
				successID := 0
				if fb == model.Success {
					successID = winner
				}
				sts[i].Observe(slot, fb, successID)
				refs[i].observe(fb, successID)
			}
		}
	}
}

// TestTreeStationSingletonCollisionsStayLogarithmic replays the sender_cd
// pathology: a station that keeps colliding on its own singleton [x, x]
// pushes the empty [x+1, x] on every slot. After 5 000 such collisions the
// plain stack holds thousands of entries; the run-length stack must stay
// within O(log n) runs and keep transmitting exactly like the reference.
func TestTreeStationSingletonCollisionsStayLogarithmic(t *testing.T) {
	const n, id = 1 << 20, 777
	st := newTreeStation(model.Params{N: n}, id)
	ref := newSliceTree(n, id)
	singleton := 0
	for slot := int64(0); singleton < 5000; slot++ {
		tx := st.WillTransmit(slot)
		if tx != ref.willTransmit() {
			t.Fatalf("slot %d: WillTransmit %v, reference %v", slot, tx, !tx)
		}
		// sender_cd with a second transmitter always present: a transmitter
		// hears the collision, a listener hears silence.
		fb := model.Silence
		if tx {
			fb = model.Collision
			if top := st.stack[len(st.stack)-1]; top.lo == id && top.hi == id {
				singleton++
			}
		}
		st.Observe(slot, fb, 0)
		ref.observe(fb, 0)
	}
	if len(ref.stack) < 5000 {
		t.Fatalf("reference stack holds %d entries; the workload no longer exercises the pathology", len(ref.stack))
	}
	if bound := 2 * bits.Len(n); len(st.stack) > bound {
		t.Errorf("after %d singleton collisions the stack holds %d runs, want at most %d", singleton, len(st.stack), bound)
	}
}
