package sweep_test

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// refRun is a deliberately naive, independent re-implementation of the
// wake-up semantics (mirroring internal/sim's reference): every slot it asks
// every station in the pattern whether it is awake and transmitting, with no
// activation bookkeeping and no reuse. Sweep cells must agree with it exactly
// on success slot, winner, and waste counters.
func refRun(algo model.Algorithm, p model.Params, w model.WakePattern, horizon int64, seed uint64) model.Result {
	funcs := make(map[int]model.TransmitFunc, w.K())
	for i, id := range w.IDs {
		funcs[id] = algo.Build(p, id, w.Wakes[i], rng.New(rng.Derive(seed, uint64(id))))
	}
	s := w.FirstWake()
	out := model.Result{SuccessSlot: -1, Rounds: -1}
	for t := s; t < s+horizon; t++ {
		var transmitters []int
		awake := 0
		for i, id := range w.IDs {
			if w.Wakes[i] > t {
				continue
			}
			awake++
			if funcs[id](t) {
				transmitters = append(transmitters, id)
			}
		}
		out.Transmissions += int64(len(transmitters))
		out.Listens += int64(awake - len(transmitters))
		switch len(transmitters) {
		case 0:
			out.Silences++
		case 1:
			out.Succeeded = true
			out.Winner = transmitters[0]
			out.SuccessSlot = t
			out.Rounds = t - s
			out.Slots = t - s + 1
			return out
		default:
			out.Collisions++
		}
	}
	out.Slots = horizon
	return out
}

// refSample maps a reference result to the sweep sample shape (failures at
// horizon, as the orchestrator records them).
func refSample(r model.Result, horizon int64) sweep.Sample {
	rounds := r.Rounds
	if !r.Succeeded {
		rounds = horizon
	}
	return sweep.Sample{
		OK:            r.Succeeded,
		Rounds:        rounds,
		Collisions:    r.Collisions,
		Silences:      r.Silences,
		Transmissions: r.Transmissions,
		Listens:       r.Listens,
		Winner:        r.Winner,
		SuccessSlot:   r.SuccessSlot,
	}
}

// TestGridMatchesReferenceSimulator fuzzes random grids of hash-schedule
// cells through the orchestrator and checks every (cell, trial) sample —
// success slot, winner, and waste counters — against the naive reference.
func TestGridMatchesReferenceSimulator(t *testing.T) {
	src := rng.New(0xd1ff)
	for round := 0; round < 20; round++ {
		// A random grid: random cells, each a random (n, k, density,
		// horizon) workload with its own wake pattern per trial.
		nCells := 1 + src.Intn(6)
		trials := 1 + src.Intn(4)
		type cellCfg struct {
			n, k    int
			density int
			horizon int64
		}
		cfgs := make([]cellCfg, nCells)
		labels := make([][]string, nCells)
		for i := range cfgs {
			n := 2 + src.Intn(40)
			cfgs[i] = cellCfg{
				n:       n,
				k:       1 + src.Intn(n),
				density: 1 + src.Intn(4),
				horizon: int64(50 + src.Intn(150)),
			}
			labels[i] = []string{string(rune('a' + i))}
		}
		gridSeed := src.Uint64()

		runTrial := func(_ *sim.Engine, cell, trial int, seed uint64) sweep.Sample {
			c := cfgs[cell]
			algo := hashAlgo{density: c.density}
			p := model.Params{N: c.n, S: -1, Seed: rng.Derive(seed, 1)}
			ids := rng.New(rng.Derive(seed, 2)).Sample(nil, c.n, c.k)
			wakes := make([]int64, c.k)
			wsrc := rng.New(rng.Derive(seed, 3))
			for i := range wakes {
				wakes[i] = wsrc.Int63n(20)
			}
			w := model.WakePattern{IDs: ids, Wakes: wakes}
			res, _, err := sim.Run(algo, p, w, sim.Options{Horizon: c.horizon, Seed: seed})
			if err != nil {
				// Run executes on pool goroutines; panic instead of t.Fatal.
				panic(err)
			}
			return refSample(res, c.horizon)
		}

		res, err := sweep.Grid{
			Name:      "diff",
			Axes:      []string{"cell"},
			Cells:     labels,
			Trials:    trials,
			Seed:      gridSeed,
			Workers:   1 + src.Intn(8),
			RunEngine: runTrial,
		}.Execute()
		if err != nil {
			t.Fatal(err)
		}

		// Re-derive every trial naively and compare cell-for-cell.
		for ci := range cfgs {
			c := cfgs[ci]
			for trial := 0; trial < trials; trial++ {
				seed := sweep.TrialSeed(gridSeed, ci, trial)
				algo := hashAlgo{density: c.density}
				p := model.Params{N: c.n, S: -1, Seed: rng.Derive(seed, 1)}
				ids := rng.New(rng.Derive(seed, 2)).Sample(nil, c.n, c.k)
				wakes := make([]int64, c.k)
				wsrc := rng.New(rng.Derive(seed, 3))
				for i := range wakes {
					wakes[i] = wsrc.Int63n(20)
				}
				w := model.WakePattern{IDs: ids, Wakes: wakes}
				want := refSample(refRun(algo, p, w, c.horizon, seed), c.horizon)
				got := res.Cells[ci].Samples[trial]
				if got != want {
					t.Fatalf("round %d cell %d trial %d: sweep %+v != reference %+v",
						round, ci, trial, got, want)
				}
			}
		}
	}
}

// TestSpecMatchesReferenceSimulator runs a declarative spec and re-derives
// every trial through the naive reference using the exported seed hooks:
// the spec layer must add nothing beyond (case, pattern, axes) enumeration.
func TestSpecMatchesReferenceSimulator(t *testing.T) {
	spec := testSpec(t, sweep.SpecDoc{
		Name:     "spec-diff",
		Cases:    []string{"roundrobin", "wakeupc", "rpd"},
		Patterns: []string{"simultaneous", "staggered:5"},
		Ns:       []int{32, 96},
		Ks:       []int{1, 3, 9},
		Trials:   3,
		Seed:     0x5bec,
	})
	spec.Workers = 7
	res, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}

	// The spec's documented cell order: cases > patterns > ns > ks.
	ci := 0
	for _, c := range spec.Cases {
		for _, gen := range spec.Patterns {
			for _, n := range spec.Ns {
				for _, k := range spec.Ks {
					if k > n {
						continue
					}
					cell := res.Cells[ci]
					wantLabels := []string{c.Name, gen.Name}
					for i, l := range wantLabels {
						if cell.Cell[i] != l {
							t.Fatalf("cell %d label %d: got %q want %q", ci, i, cell.Cell[i], l)
						}
					}
					horizon := c.Horizon(n, k)
					for trial := 0; trial < spec.Trials; trial++ {
						seed := sweep.TrialSeed(spec.Seed, ci, trial)
						p := c.Params(n, k, seed)
						w := gen.Generate(model.WakePattern{}, n, k, sweep.PatternSeed(seed))
						want := refSample(refRun(c.Algo(n, k), p, w, horizon, seed), horizon)
						if got := cell.Samples[trial]; got != want {
							t.Fatalf("cell %v trial %d: sweep %+v != reference %+v",
								cell.Cell, trial, got, want)
						}
					}
					ci++
				}
			}
		}
	}
	if ci != len(res.Cells) {
		t.Fatalf("enumerated %d cells, sweep produced %d", ci, len(res.Cells))
	}
}

// TestSpecWhiteBoxPatternsMatchDirectAdversary re-derives spoiler and swap
// cells outside the orchestrator: a white-box cell must equal running the
// adversary by hand with the trial's derived seeds and replaying its pattern
// through the reference simulator.
func TestSpecWhiteBoxPatternsMatchDirectAdversary(t *testing.T) {
	spec := testSpec(t, sweep.SpecDoc{
		Name:     "whitebox-diff",
		Cases:    []string{"roundrobin", "rpd"},
		Patterns: []string{"spoiler", "swap"},
		Ns:       []int{24},
		Ks:       []int{1, 4},
		Trials:   2,
		Seed:     0xabc,
	})
	spec.Workers = 3
	res, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	ci := 0
	for _, c := range spec.Cases {
		for _, gen := range spec.Patterns {
			for _, n := range spec.Ns {
				for _, k := range spec.Ks {
					horizon := c.Horizon(n, k)
					for trial := 0; trial < spec.Trials; trial++ {
						seed := sweep.TrialSeed(spec.Seed, ci, trial)
						algo := c.Algo(n, k)
						p := c.Params(n, k, seed)
						w := hostedPattern(t, gen, algo, p, k, horizon, seed, nil)
						if err := w.Validate(n); err != nil {
							t.Fatalf("cell %d: white-box pattern invalid: %v", ci, err)
						}
						want := refSample(refRun(algo, p, w, horizon, seed), horizon)
						if got := res.Cells[ci].Samples[trial]; got != want {
							t.Fatalf("cell %v trial %d: sweep %+v != reference %+v",
								res.Cells[ci].Cell, trial, got, want)
						}
					}
					ci++
				}
			}
		}
	}
	if ci != len(res.Cells) {
		t.Fatalf("enumerated %d cells, sweep produced %d", ci, len(res.Cells))
	}
}
