package experiments

import (
	"fmt"

	"nsmac/internal/core"
	"nsmac/internal/mathx"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/stats"
	"nsmac/internal/sweep"
)

// T9ConflictResolution measures the Komlós–Greenberg extension: letting
// EVERY awake station transmit alone takes O(k + k log(n/k)) slots — the
// result the paper's related-work section builds on ([25]).
func T9ConflictResolution(cfg Config) *Table {
	t := &Table{
		ID:     "T9",
		Title:  "kg_conflict_resolution: slots until all k stations have transmitted alone",
		Claim:  "conflict resolution completes in O(k + k log(n/k)) ([25], §1)",
		Header: []string{"n", "k", "trials", "mean", "worst", "bound", "worst/bound"},
	}
	ns := []int{256}
	if !cfg.Quick {
		ns = append(ns, 1024)
	}
	trials := cfg.trials(3, 8)

	// The (n, k) grid declared against sweep: Sample.Rounds carries the
	// conflict-resolution slot count; the per-trial station draw keeps the
	// original seed derivation.
	type cell struct{ n, k int }
	var cells []cell
	var labels [][]string
	for _, n := range ns {
		for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
			if k > n {
				continue
			}
			cells = append(cells, cell{n, k})
			labels = append(labels, []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", k)})
		}
	}
	res, err := sweep.Grid{
		Name:    "T9",
		Axes:    []string{"n", "k"},
		Cells:   labels,
		Trials:  trials,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Batch:   cfg.Batch,
		RunEngine: func(e *sim.Engine, ci, trial int, _ uint64) sweep.Sample {
			c := cells[ci]
			seed := cfg.seed(uint64(c.n)<<16 | uint64(c.k))
			a := core.NewKGConflictResolution()
			p := model.Params{N: c.n, K: c.k, S: -1, Seed: seed}
			w := simultaneous(e, c.n, c.k, rng.Derive(seed, uint64(trial)))
			all, err := e.RunAll(a, p, w, sim.Options{Horizon: a.Horizon(c.n, c.k), Seed: seed})
			if err != nil {
				panic(err)
			}
			return sweep.Sample{OK: all.Succeeded, Rounds: all.Slots}
		},
	}.Execute()
	if err != nil {
		panic(fmt.Sprintf("experiments: T9 sweep: %v", err))
	}

	var bounds, worsts []float64
	for ci, c := range cells {
		agg := res.Cells[ci].Agg
		sum := agg.Summary()
		fails := agg.Trials - agg.Successes
		// KG bound with the interleaving factor 2 folded into the
		// constant: k + k log(n/k), as in the paper's §1.
		bound := mathx.BoundKLogNK(c.n, c.k)
		worst := int64(sum.Max)
		bounds = append(bounds, float64(bound))
		worsts = append(worsts, float64(worst))
		row := []string{
			fmt.Sprintf("%d", c.n), fmt.Sprintf("%d", c.k), fmt.Sprintf("%d", trials),
			fmt.Sprintf("%.1f", sum.Mean), fmt.Sprintf("%d", worst),
			fmt.Sprintf("%d", bound), fmt.Sprintf("%.2f", float64(worst)/float64(bound)),
		}
		if fails > 0 {
			row[len(row)-1] += fmt.Sprintf(" (%d FAIL)", fails)
		}
		t.AddRow(row...)
	}
	if len(bounds) >= 2 {
		fit := stats.LinearFit(bounds, worsts)
		t.AddNote("worst ≈ %.2f·bound %+.1f (R²=%.3f): linear in the KG bound as claimed", fit.Slope, fit.Intercept, fit.R2)
	}
	return t
}

// T10TreeCD measures the collision-detection contrast model: Capetanakis
// binary splitting with simultaneous start resolves the first station in
// O(k(1+log(n/k))) slots and enumerates all k in O(k(1+log(n/k))) too.
func T10TreeCD(cfg Config) *Table {
	t := &Table{
		ID:     "T10",
		Title:  "tree_cd (collision detection): first success and full enumeration",
		Claim:  "CD tree algorithms resolve in O(k log(n/k)) (§1, [4]); CD is strictly stronger feedback",
		Header: []string{"n", "k", "trials", "first(worst)", "all(worst)", "bound", "all/bound"},
	}
	n := 1024
	if cfg.Quick {
		n = 256
	}
	trials := cfg.trials(3, 8)
	a := core.NewTreeCD()

	// The k axis declared against sweep: each trial runs both the
	// first-success and full-enumeration measurements on the same pattern.
	// Sample.Rounds carries first-success rounds, Sample.Aux the
	// enumeration slots.
	var ks []int
	var labels [][]string
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		if k > n {
			continue
		}
		ks = append(ks, k)
		labels = append(labels, []string{fmt.Sprintf("%d", k)})
	}
	res, err := sweep.Grid{
		Name:    "T10",
		Axes:    []string{"k"},
		Cells:   labels,
		Trials:  trials,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Batch:   cfg.Batch,
		RunEngine: func(e *sim.Engine, ci, trial int, _ uint64) sweep.Sample {
			k := ks[ci]
			seed := cfg.seed(uint64(k) << 4)
			p := model.Params{N: n, S: -1, Seed: seed}
			w := simultaneous(e, n, k, rng.Derive(seed, uint64(trial)))

			if err := e.Reset(a, p, w, sim.Options{
				Horizon: a.Horizon(n, k), Adaptive: true,
				Channel: model.CD(), Seed: seed,
			}); err != nil {
				panic(err)
			}
			r := e.Run()
			first := r.Rounds
			if !r.Succeeded {
				first = a.Horizon(n, k)
			}

			all, err := e.RunAll(a, p, w, sim.Options{
				Horizon: 4 * a.Horizon(n, k), Channel: model.CD(), Seed: seed,
			})
			if err != nil {
				panic(err)
			}
			s := all.Slots
			if !all.Succeeded {
				s = 4 * a.Horizon(n, k)
			}
			return sweep.Sample{OK: r.Succeeded && all.Succeeded, Rounds: first, Aux: s}
		},
	}.Execute()
	if err != nil {
		panic(fmt.Sprintf("experiments: T10 sweep: %v", err))
	}

	for ci, k := range ks {
		var worstFirst, worstAll int64
		for _, s := range res.Cells[ci].Samples {
			if s.Rounds > worstFirst {
				worstFirst = s.Rounds
			}
			if s.Aux > worstAll {
				worstAll = s.Aux
			}
		}
		bound := mathx.BoundKLogNK(n, k)
		t.AddRow(
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", k), fmt.Sprintf("%d", trials),
			fmt.Sprintf("%d", worstFirst), fmt.Sprintf("%d", worstAll),
			fmt.Sprintf("%d", bound),
			fmt.Sprintf("%.2f", float64(worstAll)/float64(bound)),
		)
	}
	t.AddNote("simultaneous start (the tree algorithm's model); feedback = collision detection")
	return t
}
