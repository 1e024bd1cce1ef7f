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

// batchedAlgos are the algorithms the engine steps through their own
// cohort, each with params for universe n and pattern w: Scenario A's know
// w's first wake, Scenario B's know k = n.
func batchedAlgos(w model.WakePattern, n int, seed uint64) []batchedCase {
	pK := model.Params{N: n, K: n, S: -1, Seed: seed}
	pS := model.Params{N: n, S: w.FirstWake(), Seed: seed}
	return []batchedCase{
		{core.NewRPD(), model.Params{N: n, S: -1, Seed: seed}},
		{core.NewRPDWithK(), model.Params{N: n, K: n, S: -1, Seed: seed}},
		{core.NewWakeupC(), model.Params{N: n, S: -1, Seed: seed}},
		{&core.WakeupC{C: 2}, model.Params{N: n, S: -1, Seed: seed}},
		{&core.WakeupC{DisableWindowWait: true}, model.Params{N: n, S: -1, Seed: seed}},
		{core.NewBEB(), model.Params{N: n, S: -1, Seed: seed}},
		{&core.BEB{CapLog: 1}, model.Params{N: n, S: -1, Seed: seed}},
		{core.NewRoundRobin(), model.Params{N: n, S: -1, Seed: seed}},
		{core.NewLocalSSF(), model.Params{N: n, S: -1, Seed: seed}},
		{core.NewLocalSSF(), pK},
		{core.NewWaitAndGo(), pK},
		{&core.WaitAndGo{DisableWait: true}, pK},
		{core.NewWakeupWithK(), pK},
		{core.NewSelectAmongFirst(), pS},
		{core.NewWakeupWithS(), pS},
	}
}

// spoiler is a white-box spoiler in miniature: it spoils every success by
// injecting the first station absent from the run that transmits at its
// wake slot, up to budget stations. It finds that station through the
// algorithm's model.WakeProber, or by building each candidate's schedule
// when the algorithm is none. It counts its injections, and those that join
// ahead of a pattern station woken in the same slot.
type spoiler struct {
	a        model.Algorithm
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
	id := s.firstWaker(slot)
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

// firstWaker is the smallest untaken station that transmits at its wake
// slot, on its own stream, or 0.
func (s *spoiler) firstWaker(slot int64) int {
	if prober, ok := s.a.(model.WakeProber); ok {
		return prober.FirstWaker(s.p, slot, s.seed, s.taken)
	}
	for id := 1; id <= s.p.N; id++ {
		if !s.taken[id] && s.a.Build(s.p, id, slot, rng.New(rng.Derive(s.seed, uint64(id))))(slot) {
			return id
		}
	}
	return 0
}

// TestCohortMatchesClosures runs every batched algorithm on its cohort and,
// behind denseOnly, on its Build closures, on every differential channel,
// to the end, in Step and RunTo pieces, and hooked with injections: result,
// channel counters and transcript agree. The transcript lists each slot's
// transmitters in activation order, so it pins where an injected station
// joins the cohort. Each case runs recorded and unrecorded: the cohorts of
// BEB, round-robin and localssf name their next attempts, so an unrecorded
// run on a channel that lets silence be skipped is also their skip-vs-dense
// differential.
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
			for _, bc := range batchedAlgos(w, n, seed) {
				algo, p := bc.algo, bc.p
				horizon := 50 + src.Int63n(300)
				for _, record := range []bool{true, false} {
					opt := sim.Options{Horizon: horizon, Channel: ch, Seed: seed, RecordTrace: record}
					name := fmt.Sprintf("%s on %s, %s n=%d k=%d, recorded %v", algo.Name(), ch.Name(), shape, n, k, record)
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

					sb := &spoiler{a: algo, p: p, seed: seed}
					sc := &spoiler{a: algo, p: p, seed: seed}
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
	}
	if injected == 0 || ahead == 0 {
		t.Fatalf("hooked runs injected %d stations, %d of them ahead of a station woken with them; want some of each", injected, ahead)
	}
}

// TestRPDTrialAllocatesNothing: a warm engine runs a trial of every batched
// algorithm without allocating, because the cohort's tables are reused.
// RPD, wakeup(n), wait_and_go and round-robin trials are also spoiled,
// through their wake probes; BEB, localssf, select_among_the_first and the
// interleavings have none, and the miniature spoiler builds their
// candidates' schedules. Round-robin's probe never finds a spoiler: the one
// station that transmits at a success slot's residue is its winner.
func TestRPDTrialAllocatesNothing(t *testing.T) {
	w := model.WakePattern{IDs: []int{3, 9, 17, 30, 41}, Wakes: []int64{0, 0, 2, 5, 5}}
	for _, bc := range batchedAlgos(w, 64, 7) {
		algo, p := bc.algo, bc.p
		opt := sim.Options{Horizon: 4096, Seed: 7}
		e := sim.NewEngine()
		s := &spoiler{a: algo, p: p, seed: opt.Seed}
		_, probes := algo.(model.WakeProber)
		budgets := []int{0}
		if probes {
			budgets = append(budgets, 2)
		}
		for _, budget := range budgets {
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
		if _, rr := algo.(core.RoundRobin); probes && !rr && s.injected == 0 {
			t.Errorf("%s: no trial injected a station", algo.Name())
		}
	}
}

// TestWarmLadderCohortMatchesFresh runs wakeup_with_k, wakeup_with_s,
// select_among_the_first and wait_and_go (with and without the wait) in
// turn on one engine, over changing n, k and seed, so that each run
// re-keys the ladder a run of another shape left in the cohort. Each run,
// recorded, must match a fresh engine's run of the same trial, and the run
// of the algorithm's Build closures, which read the shared
// selectors.RandomLadder.
func TestWarmLadderCohortMatchesFresh(t *testing.T) {
	src := rng.New(0x1add)
	warm := sim.NewEngine()
	for trial := range 150 {
		n := []int{2, 17, 64, 256, 1024}[src.Intn(5)]
		k := 1 + src.Intn(min(n, 40))
		w := diffPattern(src, []string{"simultaneous", "staggered", "uniform"}[src.Intn(3)], n, k)
		seed := src.Uint64()
		pK := model.Params{N: n, K: k, S: -1, Seed: seed}
		pS := model.Params{N: n, S: w.FirstWake(), Seed: seed}
		bc := []batchedCase{
			{core.NewWakeupWithK(), pK},
			{core.NewWakeupWithS(), pS},
			{core.NewSelectAmongFirst(), pS},
			{core.NewWaitAndGo(), pK},
			{&core.WaitAndGo{DisableWait: true}, pK},
		}[trial%5]
		opt := sim.Options{Horizon: 400, Seed: seed, RecordTrace: true}
		name := fmt.Sprintf("trial %d: %s n=%d k=%d", trial, bc.algo.Name(), n, k)
		run := func(e *sim.Engine, algo model.Algorithm) *sim.Engine {
			if err := e.Reset(algo, bc.p, w, opt); err != nil {
				t.Fatal(err)
			}
			e.Run()
			return e
		}
		run(warm, bc.algo)
		for _, ref := range []*sim.Engine{run(sim.NewEngine(), bc.algo), run(sim.NewEngine(), denseOnly{bc.algo})} {
			samePlace(t, name, warm, ref)
			if a, b := warm.Channel().Trace(), ref.Channel().Trace(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: warm transcript %v, fresh %v", name, a, b)
			}
		}
	}
}
