package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// batchedCase is an algorithm with a cohort and params to run it with.
type batchedCase struct {
	algo model.Algorithm
	p    model.Params
}

// batchedAlgos are the algorithms with a cohort, each with params for
// universe n.
func batchedAlgos(n int, seed uint64) []batchedCase {
	return []batchedCase{
		{core.NewRPD(), model.Params{N: n, S: -1, Seed: seed}},
		{core.NewRPDWithK(), model.Params{N: n, K: n, S: -1, Seed: seed}},
	}
}

// spoiler is a white-box spoiler in miniature: it spoils every success by
// injecting the first station absent from the run that transmits at its
// wake slot, up to budget stations. It counts its injections, and those
// that join ahead of a pattern station woken in the same slot.
type spoiler struct {
	a        model.WakeProber
	p        model.Params
	seed     uint64
	w        model.WakePattern
	taken    []bool
	budget   int
	injected int
	ahead    int
}

// arm readies s for a run of pattern w.
func (s *spoiler) arm(w model.WakePattern, budget int) {
	if len(s.taken) != s.p.N+1 {
		s.taken = make([]bool, s.p.N+1)
	}
	clear(s.taken)
	s.w = w
	for _, id := range w.IDs {
		s.taken[id] = true
	}
	s.budget = budget
}

func (s *spoiler) hook(slot int64, _ int) (int, bool) {
	if s.budget == 0 {
		return 0, false
	}
	s.budget--
	id := s.a.FirstWaker(s.p, slot, s.seed, s.taken)
	if id != 0 {
		s.taken[id] = true
		s.injected++
		for i, other := range s.w.IDs {
			if s.w.Wakes[i] == slot && other > id {
				s.ahead++
				break
			}
		}
	}
	return id, false
}

// TestCohortMatchesClosures runs every batched algorithm on its cohort and,
// behind denseOnly, on its Build closures, on every differential channel,
// to the end, in Step and RunTo pieces, and hooked with injections: result,
// channel counters and transcript agree. The transcript lists each slot's
// transmitters in activation order, so it pins where an injected station
// joins the cohort.
func TestCohortMatchesClosures(t *testing.T) {
	src := rng.New(0xc0b0)
	injected, ahead := 0, 0
	batched, closures := sim.NewEngine(), sim.NewEngine()
	for _, ch := range differentialChannels() {
		for _, shape := range []string{"simultaneous", "staggered", "uniform"} {
			n := []int{2, 5, 64, 256}[src.Intn(4)]
			k := 1 + src.Intn(min(n-1, 12))
			w := diffPattern(src, shape, n, k)
			seed := src.Uint64()
			for _, bc := range batchedAlgos(n, seed) {
				algo, p := bc.algo, bc.p
				opt := sim.Options{Horizon: 50 + src.Int63n(300), Channel: ch, Seed: seed, RecordTrace: true}
				name := fmt.Sprintf("%s on %s, %s n=%d k=%d", algo.Name(), ch.Name(), shape, n, k)
				reset := func() {
					t.Helper()
					if err := batched.Reset(algo, p, w, opt); err != nil {
						t.Fatal(err)
					}
					if err := closures.Reset(denseOnly{algo}, p, w, opt); err != nil {
						t.Fatal(err)
					}
					if !batched.SteppingBatched() || closures.SteppingBatched() {
						t.Fatalf("%s: batched engine uses its cohort: %v, closure engine: %v",
							name, batched.SteppingBatched(), closures.SteppingBatched())
					}
				}
				same := func(what string) {
					t.Helper()
					samePlace(t, name+", "+what, batched, closures)
					if a, b := batched.Channel().Trace(), closures.Channel().Trace(); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s, %s: batched transcript %v, closures %v", name, what, a, b)
					}
				}

				reset()
				batched.Run()
				closures.Run()
				same("run")

				reset()
				for cut := 0; !closures.Done(); cut++ {
					if src.Intn(3) == 0 {
						batched.Step()
						closures.Step()
					} else {
						u := closures.Slot() + src.Int63n(40)
						batched.RunTo(u)
						closures.RunTo(u)
					}
					same(fmt.Sprintf("cut %d", cut))
				}

				sb := &spoiler{a: algo.(model.WakeProber), p: p, seed: seed}
				sc := &spoiler{a: algo.(model.WakeProber), p: p, seed: seed}
				sb.arm(w, 3)
				sc.arm(w, 3)
				reset()
				batched.RunHooked(3, sb.hook)
				closures.RunHooked(3, sc.hook)
				same("hooked")
				injected += sb.injected
				ahead += sb.ahead
			}
		}
	}
	if injected == 0 || ahead == 0 {
		t.Fatalf("hooked runs injected %d stations, %d of them ahead of a station woken with them; want some of each", injected, ahead)
	}
}

// TestRPDTrialAllocatesNothing: a warm engine runs an RPD trial, spoiled or
// not, without allocating, because the cohort's coin table is reused.
func TestRPDTrialAllocatesNothing(t *testing.T) {
	w := model.WakePattern{IDs: []int{3, 9, 17, 30, 41}, Wakes: []int64{0, 0, 2, 5, 5}}
	for _, bc := range batchedAlgos(64, 7) {
		algo, p := bc.algo, bc.p
		opt := sim.Options{Horizon: 4096, Seed: 7}
		e := sim.NewEngine()
		s := &spoiler{a: algo.(model.WakeProber), p: p, seed: opt.Seed}
		for _, budget := range []int{0, 2} {
			trial := func() {
				s.arm(w, budget)
				if err := e.Reset(algo, p, w, opt); err != nil {
					t.Fatal(err)
				}
				e.RunHooked(budget, s.hook)
			}
			trial() // warm the tables
			if allocs := testing.AllocsPerRun(100, trial); allocs > 0 {
				t.Errorf("%s, %d spoilers: warm trial allocates %.1f objects, want 0", algo.Name(), budget, allocs)
			}
		}
		if s.injected == 0 {
			t.Errorf("%s: no trial injected a station", algo.Name())
		}
	}
}
