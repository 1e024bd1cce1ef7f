package sim

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// staticAlgo returns one shared TransmitFunc, so a Reset+activation cycle
// allocates nothing of its own — isolating the engine's bookkeeping cost.
type staticAlgo struct{ fn model.TransmitFunc }

func (staticAlgo) Name() string { return "static" }
func (a staticAlgo) Build(model.Params, int, int64, *rng.Source) model.TransmitFunc {
	return a.fn
}

// TestResetAllocRegression guards the satellite fix: Reset used sort.Slice,
// whose closure + reflection header allocated on every trial even when the
// wake pattern was unchanged. With slices.SortFunc and the sorted-input
// fast path, a warm Reset must be allocation-free — for already-ordered
// patterns (the common generator output) and unordered ones alike.
func TestResetAllocRegression(t *testing.T) {
	algo := staticAlgo{fn: func(int64) bool { return false }}
	p := model.Params{N: 64, S: -1}
	opt := Options{Horizon: 16, Seed: 1}
	patterns := map[string]model.WakePattern{
		"sorted":   {IDs: []int{3, 9, 17, 30}, Wakes: []int64{0, 0, 2, 5}},
		"unsorted": {IDs: []int{30, 3, 17, 9}, Wakes: []int64{5, 0, 2, 0}},
	}
	for name, w := range patterns {
		e := NewEngine()
		if err := e.Reset(algo, p, w, opt); err != nil { // warm the table
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := e.Reset(algo, p, w, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s pattern: warm Reset allocates %.1f objects, want 0", name, allocs)
		}
	}
}

// TestResetSortsUnsortedPatterns guards the fast path's correctness: the
// sorted-input check must not skip a needed sort.
func TestResetSortsUnsortedPatterns(t *testing.T) {
	algo := staticAlgo{fn: func(int64) bool { return false }}
	p := model.Params{N: 64, S: -1}
	opt := Options{Horizon: 16, Seed: 1}
	w := model.WakePattern{IDs: []int{30, 3, 17, 9}, Wakes: []int64{5, 0, 2, 0}}
	e := NewEngine()
	if err := e.Reset(algo, p, w, opt); err != nil {
		t.Fatal(err)
	}
	wantIDs := []int{3, 9, 17, 30}
	wantWakes := []int64{0, 0, 2, 5}
	for i, st := range e.stations {
		if st.id != wantIDs[i] || st.wake != wantWakes[i] {
			t.Fatalf("station %d = (id=%d wake=%d), want (id=%d wake=%d)",
				i, st.id, st.wake, wantIDs[i], wantWakes[i])
		}
	}
}

// retiringStation is a toy adaptive protocol: round-robin by ID until it
// hears its own success, then silent forever — "retirement" expressed the
// only way this engine supports it, through its fleet's Transmitters.
type retiringStation struct {
	id      int
	n       int64
	retired bool
}

func (s *retiringStation) Transmits(t int64) bool {
	return !s.retired && t%s.n == int64(s.id-1)
}

func (s *retiringStation) Hear(t int64, fb model.Feedback, successID int) {
	if fb == model.Success && successID == s.id {
		s.retired = true
	}
}

type retiringAlgo struct{}

func (retiringAlgo) Name() string { return "retiring" }
func (retiringAlgo) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	panic("adaptive only")
}
func (retiringAlgo) Fleet(p model.Params, _ model.Fleet) model.Fleet {
	return &FixtureFleet{New: func(id int, _ int64) FixtureStation { return &retiringStation{id: id, n: int64(p.N)} }}
}

// TestRetirementIsProtocolBehaviour pins the satellite decision: the engine
// has no station-level retirement switch (the dead `retired` field is gone).
// A station that retires does so inside its own protocol state, and — per
// the paper's energy measure — keeps paying for listening: retirement stops
// its transmissions, never its energy meter.
func TestRetirementIsProtocolBehaviour(t *testing.T) {
	p := model.Params{N: 4, S: -1}
	w := model.WakePattern{IDs: []int{1, 2}, Wakes: []int64{0, 0}}
	e := NewEngine()
	if err := e.Reset(retiringAlgo{}, p, w, Options{Horizon: 12, Adaptive: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// Run past the first success: station 1 wins slot 0 and retires; the
	// conflict-resolution hook keeps the run going until station 2 wins
	// slot 1.
	var successes []int
	res := e.RunHooked(0, func(slot int64, winner int) (int, bool) {
		successes = append(successes, winner)
		return 0, len(successes) < 2
	})
	if len(successes) != 2 || successes[0] != 1 || successes[1] != 2 {
		t.Fatalf("successes = %v, want [1 2]", successes)
	}
	// Slot 0: station 1 transmits (success), station 2 listens.
	// Slot 1: station 1 is retired — it LISTENS — station 2 transmits.
	if res.Transmissions != 2 {
		t.Errorf("transmissions = %d, want 2", res.Transmissions)
	}
	if res.Listens != 2 {
		t.Errorf("listens = %d, want 2 — a retired station still pays to listen", res.Listens)
	}
	if res.Energy() != 4 {
		t.Errorf("energy = %d, want 4", res.Energy())
	}
}
