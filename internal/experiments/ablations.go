package experiments

import (
	"fmt"

	"nsmac/internal/adversary"
	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// T8Ablations removes the design elements DESIGN.md calls out one at a time
// and measures what breaks:
//
//	(a) wait_and_go without the family-boundary wait — §4's correctness
//	    argument pins the participant set per family; the white-box
//	    Spoiler adversary (wake a colliding partner exactly at would-be
//	    success slots) exploits the ablated variant but is blocked by the
//	    barrier in the original;
//	(b) wakeup(n) without the µ(σ) window alignment — §5's property P1;
//	    same attack, same asymmetry;
//	(c) wakeup(n) constant c sweep at large k, where isolation requires
//	    descending to deep rows and the descent time scales with c;
//	(d) selective-family size multiplier sweep — family length (and with
//	    it latency) trades against the selectivity failure probability of
//	    the w.h.p. construction.
func T8Ablations(cfg Config) *Table {
	t := &Table{
		ID:     "T8",
		Title:  "design ablations",
		Claim:  "each mechanism is load-bearing for its algorithm's guarantee",
		Header: []string{"ablation", "n", "k", "metric", "standard", "ablated"},
	}
	n := 256
	seedBase := cfg.seed(0x8a)

	// (a) + (b): spoiler attack on the wait barriers. The adversary gets a
	// budget of k-1 fresh stations to burn on spoiling. Each (ablation,
	// variant) pair is one sweep cell; Sample.Rounds carries the rounds under
	// attack and Sample.Aux the spoiled-success count.
	k := 8
	// Both variants of an ablation run against the standard variant's
	// horizon, as the original comparison prescribed.
	horB := core.NewWaitAndGo().Horizon(n, k)
	horC := core.NewWakeupC().Horizon(n, k)
	spoilCells := []struct {
		label   string
		mk      func() model.Algorithm
		p       model.Params
		horizon int64
	}{
		{"(a) wait_and_go vs spoiler/std", func() model.Algorithm { return core.NewWaitAndGo() },
			model.Params{N: n, K: k, S: -1, Seed: rng.Derive(seedBase, 1)}, horB},
		{"(a) wait_and_go vs spoiler/abl", func() model.Algorithm { return &core.WaitAndGo{DisableWait: true} },
			model.Params{N: n, K: k, S: -1, Seed: rng.Derive(seedBase, 1)}, horB},
		{"(b) wakeup(n) vs spoiler/std", func() model.Algorithm { return core.NewWakeupC() },
			model.Params{N: n, S: -1, Seed: rng.Derive(seedBase, 2)}, horC},
		{"(b) wakeup(n) vs spoiler/abl", func() model.Algorithm { return &core.WakeupC{DisableWindowWait: true} },
			model.Params{N: n, S: -1, Seed: rng.Derive(seedBase, 2)}, horC},
	}
	spoilLabels := make([][]string, len(spoilCells))
	for i, c := range spoilCells {
		spoilLabels[i] = []string{c.label}
	}
	spoilRes, err := sweep.Grid{
		Name:    "T8-spoiler",
		Axes:    []string{"cell"},
		Cells:   spoilLabels,
		Trials:  1,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Batch:   cfg.Batch,
		RunEngine: func(e *sim.Engine, ci, _ int, _ uint64) sweep.Sample {
			c := spoilCells[ci]
			r, _, err := adversary.Spoiler(e, c.mk(), c.p, k, 1, sim.Options{Horizon: c.horizon, Seed: c.p.Seed})
			if err != nil {
				panic(fmt.Sprintf("experiments: T8 %s: %v", c.label, err))
			}
			return sweep.Sample{OK: true, Rounds: r.Rounds, Aux: int64(r.Spoiled)}
		},
	}.Execute()
	if err != nil {
		panic(fmt.Sprintf("experiments: T8 spoiler sweep: %v", err))
	}
	for i := 0; i+1 < len(spoilRes.Cells); i += 2 {
		name := spoilCells[i].label[:len(spoilCells[i].label)-len("/std")]
		std, abl := spoilRes.Cells[i].Samples[0], spoilRes.Cells[i+1].Samples[0]
		t.AddRow(name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			"rounds under attack", fmt.Sprintf("%d", std.Rounds), fmt.Sprintf("%d", abl.Rounds))
		t.AddRow(name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			"successes spoiled", fmt.Sprintf("%d", std.Aux), fmt.Sprintf("%d", abl.Aux))
	}

	// (c) constant c sweep where row descent dominates: large k. The c axis
	// is the grid; the trial index drives the original seed derivation.
	kBig := 128
	trialsC := cfg.trials(3, 8)
	cValues := []int{1, 2, 4}
	cLabels := make([][]string, len(cValues))
	for i, c := range cValues {
		cLabels[i] = []string{fmt.Sprintf("%d", c)}
	}
	cRes, err := sweep.Grid{
		Name:    "T8-c",
		Axes:    []string{"c"},
		Cells:   cLabels,
		Trials:  trialsC,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Batch:   cfg.Batch,
		RunEngine: func(e *sim.Engine, ci, trial int, _ uint64) sweep.Sample {
			a := &core.WakeupC{C: cValues[ci]}
			seed := rng.Derive(seedBase, 0xc0+uint64(trial))
			p := model.Params{N: n, S: -1, Seed: seed}
			w := simultaneous(e, n, kBig, seed)
			m := runOnce(e, a, p, w, a.Horizon(n, kBig))
			return sweep.Sample{OK: m.ok, Rounds: m.rounds}
		},
	}.Execute()
	if err != nil {
		panic(fmt.Sprintf("experiments: T8 c sweep: %v", err))
	}
	for i, c := range cValues {
		sum := cRes.Cells[i].Agg.Summary()
		t.AddRow(fmt.Sprintf("(c) wakeup(n) c=%d", c), fmt.Sprintf("%d", n), fmt.Sprintf("%d", kBig),
			"mean / worst rounds", fmt.Sprintf("%.0f", sum.Mean), fmt.Sprintf("%.0f", sum.Max))
	}

	// (d) family size multiplier for the standalone wait_and_go component.
	kD := 8
	trialsD := cfg.trials(4, 10)
	for _, mult := range []float64{1, 2, 4, 8} {
		a := &core.WaitAndGo{SizeMult: mult}
		pD := model.Params{N: n, K: kD, S: -1, Seed: rng.Derive(seedBase, 3)}
		var pats []model.WakePattern
		for _, g := range adversary.Suite() {
			for trial := 0; trial < trialsD; trial++ {
				pats = append(pats, g.Generate(model.WakePattern{}, n, kD, rng.Derive(seedBase^0xd1, uint64(trial)+uint64(len(g.Name))<<16)))
			}
		}
		rounds, ok := sweepPatterns(cfg, a, pD, pats, a.Horizon(n, kD))
		t.AddRow(fmt.Sprintf("(d) wait_and_go mult=%.0f", mult), fmt.Sprintf("%d", n), fmt.Sprintf("%d", kD),
			fmt.Sprintf("ok %d/%d, mean / worst", ok, len(pats)),
			fmt.Sprintf("%.1f", meanOf(rounds)), fmt.Sprintf("%d", maxOf(rounds)))
	}

	t.AddNote("(a),(b): the spoiler wakes a colliding partner at every would-be success; the wait barriers deny it mid-family/mid-window targets, so the standard variants resolve in O(1) spoils while ablated variants hand the adversary its full budget")
	t.AddNote("(c): at k=%d isolation needs deep rows, so latency scales with the descent constant c", kBig)
	t.AddNote("(d): family length scales with mult; shorter families are faster but erode the w.h.p. selectivity margin")
	return t
}
