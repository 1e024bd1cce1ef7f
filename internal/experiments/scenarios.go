package experiments

import (
	"fmt"

	"nsmac/internal/adversary"
	"nsmac/internal/core"
	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/stats"
	"nsmac/internal/sweep"
)

// T1LowerBound probes Theorem 2.1: the swap adversary must force any
// algorithm to spend at least min{k, n−k+1} rounds, even with simultaneous
// start and known n, k. Rows report the forced slot count (rounds+1, the
// theorem counts slots used) against the bound for round-robin and
// wakeup_with_k.
func T1LowerBound(cfg Config) *Table {
	t := &Table{
		ID:     "T1",
		Title:  "lower bound forced by the Theorem 2.1 swap adversary",
		Claim:  "any wake-up algorithm needs ≥ min{k, n−k+1} rounds (Thm 2.1)",
		Header: []string{"n", "k", "bound", "forced(rr)", "forced(wwk)", "rr≥bound", "wwk≥bound"},
	}
	ns := []int{64, 256}
	if cfg.Quick {
		ns = []int{64}
	}

	// Each grid cell is one adversary search: (n, k, algorithm). The swap
	// search is the trial body; forced slots land in Sample.Rounds.
	type cell struct{ n, k, algo int } // algo: 0 = round-robin, 1 = wwk
	var cells []cell
	var labels [][]string
	algoNames := []string{"rr", "wwk"}
	for _, n := range ns {
		for _, k := range []int{2, 4, n / 4, n / 2, n - 4} {
			if k < 2 || k > n {
				continue
			}
			for a := range algoNames {
				cells = append(cells, cell{n, k, a})
				labels = append(labels, []string{
					fmt.Sprintf("%d", n), fmt.Sprintf("%d", k), algoNames[a],
				})
			}
		}
	}
	res, err := sweep.Grid{
		Name:    "T1",
		Axes:    []string{"n", "k", "algo"},
		Cells:   labels,
		Trials:  1,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Batch:   cfg.Batch,
		RunEngine: func(_ *sim.Engine, ci, _ int, _ uint64) sweep.Sample {
			c := cells[ci]
			var forced int64
			if c.algo == 0 {
				rr := core.NewRoundRobin()
				p := model.Params{N: c.n, S: -1, Seed: cfg.seed(uint64(c.n*37 + c.k))}
				forced = adversary.Swap(rr, p, c.k, rr.Horizon(c.n, c.k), false).ForcedRounds
			} else {
				p := model.Params{N: c.n, K: c.k, S: -1, Seed: cfg.seed(uint64(c.n*41 + c.k))}
				forced = adversary.Swap(core.NewWakeupWithK(), p, c.k,
					core.WakeupWithKHorizon(c.n, c.k), false).ForcedRounds
			}
			return sweep.Sample{OK: true, Rounds: forced}
		},
	}.Execute()
	if err != nil {
		panic(fmt.Sprintf("experiments: T1 sweep: %v", err))
	}

	violations := 0
	for i := 0; i+1 < len(res.Cells); i += 2 {
		c := cells[i]
		bound := mathx.BoundLowerMinKN(c.n, c.k)
		forcedRR := res.Cells[i].Samples[0].Rounds
		forcedK := res.Cells[i+1].Samples[0].Rounds
		okRR := forcedRR+1 >= bound
		okK := forcedK+1 >= bound
		if !okRR || !okK {
			violations++
		}
		t.AddRow(
			fmt.Sprintf("%d", c.n), fmt.Sprintf("%d", c.k), fmt.Sprintf("%d", bound),
			fmt.Sprintf("%d", forcedRR+1), fmt.Sprintf("%d", forcedK+1),
			fmt.Sprintf("%v", okRR), fmt.Sprintf("%v", okK),
		)
	}
	if violations == 0 {
		t.AddNote("SHAPE OK: every forced slot count meets the theoretical lower bound")
	} else {
		t.AddNote("SHAPE VIOLATION: %d cells below the lower bound (model bug)", violations)
	}
	return t
}

// scenarioSweep declares a (k × pattern) grid against the sweep orchestrator
// — one cell per adversary pattern, all k values sharded through one worker
// pool — and reports per-k worst/mean rounds against a bound function.
func scenarioSweep(cfg Config, t *Table, n int, ks []int,
	mkParams func(n, k int, seed uint64) model.Params,
	algoFor func(p model.Params) model.Algorithm,
	horizonFor func(n, k int) int64,
	boundFor func(n, k int) int64,
	gens []adversary.Generator) {

	trials := cfg.trials(3, 8)

	// Enumerate the grid: for each k, the adversary patterns drawn from the
	// per-k derived seed (the drivers' seed discipline), filtered to the
	// scenario's premise where one applies.
	type cell struct {
		k       int
		pat     model.WakePattern
		p       model.Params
		algo    model.Algorithm
		horizon int64
	}
	var cells []cell
	var labels [][]string
	var kOrder []int
	perK := map[int]int{} // k -> number of cells
	for _, k := range ks {
		if k > n {
			continue
		}
		seed := cfg.seed(uint64(n)<<20 | uint64(k))
		p := mkParams(n, k, seed)
		algo := algoFor(p)
		horizon := horizonFor(n, k)

		var pats []model.WakePattern
		for _, g := range gens {
			for trial := 0; trial < trials; trial++ {
				pats = append(pats, g.Generate(n, k, rng.Derive(seed, uint64(trial)+uint64(len(g.Name))<<16)))
			}
		}
		// Scenario A requires every pattern to start at the declared s.
		if p.KnowsS() {
			kept := pats[:0]
			for _, w := range pats {
				if w.FirstWake() == p.S {
					kept = append(kept, w)
				}
			}
			pats = kept
		}
		kOrder = append(kOrder, k)
		perK[k] = len(pats)
		for pi, w := range pats {
			cells = append(cells, cell{k: k, pat: w, p: p, algo: algo, horizon: horizon})
			labels = append(labels, []string{fmt.Sprintf("%d", k), fmt.Sprintf("%d", pi)})
		}
	}

	res, err := sweep.Grid{
		Name:    fmt.Sprintf("%s n=%d", t.ID, n),
		Axes:    []string{"k", "pattern"},
		Cells:   labels,
		Trials:  1,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Batch:   cfg.Batch,
		RunEngine: func(e *sim.Engine, ci, _ int, _ uint64) sweep.Sample {
			c := cells[ci]
			m := runOnce(e, c.algo, c.p, c.pat, c.horizon)
			return sweep.Sample{OK: m.ok, Rounds: m.rounds}
		},
	}.Execute()
	if err != nil {
		panic(fmt.Sprintf("experiments: scenario sweep: %v", err))
	}

	// Fold cells back into per-k rows, in k order.
	var ratios []float64
	var bounds, worsts []float64
	failures := 0
	next := 0
	for _, k := range kOrder {
		count := perK[k]
		var agg stats.Aggregate
		for _, c := range res.Cells[next : next+count] {
			agg.Merge(c.Agg)
		}
		next += count
		failures += agg.Trials - agg.Successes

		sum := agg.Summary()
		worst := int64(sum.Max)
		bound := boundFor(n, k)
		// Rounds are 0-based (t−s); the bound counts slots, so compare
		// worst+1 clamped to ≥1 to keep ratios positive for instant wins.
		ratio := float64(mathx.Max64(worst, 1)) / float64(bound)
		ratios = append(ratios, ratio)
		bounds = append(bounds, float64(bound))
		worsts = append(worsts, float64(worst))

		t.AddRow(
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", agg.Trials),
			fmt.Sprintf("%.1f", sum.Mean), fmt.Sprintf("%d", worst),
			fmt.Sprintf("%d", bound), fmt.Sprintf("%.2f", ratio),
		)
	}
	if len(bounds) >= 2 {
		fit := stats.LinearFit(bounds, worsts)
		t.AddNote("n=%d: worst ≈ %.2f·bound %+.1f (R²=%.3f); worst/bound ratio gmean %.2f max %.2f",
			n, fit.Slope, fit.Intercept, fit.R2,
			stats.GeometricMean(ratios), stats.Summarize(ratios).Max)
	}
	if failures > 0 {
		t.AddNote("n=%d: %d runs hit the horizon (FAILURES)", n, failures)
	}
}

// T2WakeupWithS reproduces §3: with s known and all participants woken at
// s, wakeup_with_s resolves contention in Θ(k log(n/k)+1) rounds.
func T2WakeupWithS(cfg Config) *Table {
	t := &Table{
		ID:     "T2",
		Title:  "wakeup_with_s worst-case rounds vs k·log(n/k)+k+1",
		Claim:  "Scenario A algorithm is Θ(k log(n/k)+1) (§3)",
		Header: []string{"n", "k", "runs", "mean", "worst", "bound", "worst/bound"},
	}
	ns := []int{256, 1024}
	ks := []int{1, 2, 4, 8, 16, 32, 64}
	if !cfg.Quick {
		ns = append(ns, 4096)
		ks = append(ks, 128, 256)
	}
	// Scenario A's premise: the participating stations wake exactly at the
	// announced s. Every pattern therefore starts at the declared S = 0;
	// trial diversity comes from the seeded station subsets. (scenarioSweep
	// additionally drops any pattern that violates the declared S, which
	// guards this invariant if the generator list ever changes.)
	gens := []adversary.Generator{
		adversary.Simultaneous(0),
	}
	for _, n := range ns {
		scenarioSweep(cfg, t, n, ks,
			func(n, k int, seed uint64) model.Params {
				return model.Params{N: n, S: 0, Seed: seed}
			},
			func(p model.Params) model.Algorithm { return core.NewWakeupWithS() },
			core.WakeupWithSHorizon,
			mathx.BoundKLogNK,
			gens)
	}
	t.AddNote("knowledge: stations know n and s; patterns are simultaneous at s (the scenario's premise)")
	return t
}

// T3WakeupWithK reproduces §4: with k known but s unknown and wake-ups
// adversarially staggered, wakeup_with_k stays Θ(k log(n/k)+1).
func T3WakeupWithK(cfg Config) *Table {
	t := &Table{
		ID:     "T3",
		Title:  "wakeup_with_k worst-case rounds vs k·log(n/k)+k+1",
		Claim:  "Scenario B algorithm is Θ(k log(n/k)+1) (§4)",
		Header: []string{"n", "k", "runs", "mean", "worst", "bound", "worst/bound"},
	}
	ns := []int{256, 1024}
	ks := []int{1, 2, 4, 8, 16, 32, 64}
	if !cfg.Quick {
		ns = append(ns, 4096)
		ks = append(ks, 128, 256)
	}
	for _, n := range ns {
		scenarioSweep(cfg, t, n, ks,
			func(n, k int, seed uint64) model.Params {
				return model.Params{N: n, K: k, S: -1, Seed: seed}
			},
			func(p model.Params) model.Algorithm { return core.NewWakeupWithK() },
			core.WakeupWithKHorizon,
			mathx.BoundKLogNK,
			adversary.Suite())
	}
	t.AddNote("knowledge: stations know n and k; wake-ups staggered adversarially (suite of 5 pattern families)")
	return t
}

// T4WakeupC reproduces Theorem 5.3: with neither s nor k known, wakeup(n)
// resolves contention within O(k log n log log n) rounds.
func T4WakeupC(cfg Config) *Table {
	t := &Table{
		ID:     "T4",
		Title:  "wakeup(n) worst-case rounds vs k·log n·log log n",
		Claim:  "Scenario C algorithm is O(k log n log log n) (Thm 5.3)",
		Header: []string{"n", "k", "runs", "mean", "worst", "bound", "worst/bound"},
	}
	ns := []int{256, 1024}
	ks := []int{1, 2, 4, 8, 16, 32}
	if !cfg.Quick {
		ns = append(ns, 4096)
		ks = append(ks, 64, 128)
	}
	a := core.NewWakeupC()
	for _, n := range ns {
		scenarioSweep(cfg, t, n, ks,
			func(n, k int, seed uint64) model.Params {
				return model.Params{N: n, S: -1, Seed: seed}
			},
			func(p model.Params) model.Algorithm { return a },
			a.Horizon,
			mathx.BoundKLogLogLog,
			adversary.Suite())
	}
	t.AddNote("knowledge: stations know only n; matrix constant c=%d; ratio is worst/(k·⌈log n⌉·⌈log log n⌉)", 1)
	return t
}
