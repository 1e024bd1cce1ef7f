package experiments

import (
	"fmt"

	"nsmac/internal/adversary"
	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// T12ClockSkew probes the paper's concluding conjecture — that the global
// clock is essential ("the best deterministic solution without global clock
// is nearly logarithmically worse... we conjecture that this gap cannot be
// removed"). Each station's clock is offset by a private skew in
// [0, maxSkew]; schedules keyed to global slot numbers (family boundaries,
// matrix columns) drift apart, while the locally synchronized baseline and
// the per-station randomized baseline are skew-invariant by construction.
func T12ClockSkew(cfg Config) *Table {
	t := &Table{
		ID:     "T12",
		Title:  "sensitivity to clock skew (globally vs locally synchronized)",
		Claim:  "the global clock is load-bearing for §3–§5; local algorithms don't care (§1, §7)",
		Header: []string{"algorithm", "skew", "runs", "ok", "mean", "worst"},
	}
	n, k := 256, 8
	trials := cfg.trials(3, 8)
	seedBase := cfg.seed(0x12c)

	patterns := func(tag uint64) []model.WakePattern {
		var pats []model.WakePattern
		for _, g := range adversary.Suite() {
			for trial := 0; trial < trials; trial++ {
				pats = append(pats, g.Generate(model.WakePattern{}, n, k, rng.Derive(seedBase^tag, uint64(trial)+uint64(len(g.Name))<<16)))
			}
		}
		return pats
	}

	type target struct {
		name    string
		mk      func() model.Algorithm
		p       model.Params
		horizon int64
	}
	wc := core.NewWakeupC()
	targets := []target{
		{"wakeup_with_k", func() model.Algorithm { return core.NewWakeupWithK() },
			model.Params{N: n, K: k, S: -1, Seed: rng.Derive(seedBase, 1)},
			4 * core.WakeupWithKHorizon(n, k)},
		{"wakeup(n)", func() model.Algorithm { return core.NewWakeupC() },
			model.Params{N: n, S: -1, Seed: rng.Derive(seedBase, 2)},
			4 * wc.Horizon(n, k)},
		{"local_ssf", func() model.Algorithm { return core.NewLocalSSF() },
			model.Params{N: n, K: k, S: -1, Seed: rng.Derive(seedBase, 3)},
			core.NewLocalSSF().Horizon(n, k)},
		{"rpd", func() model.Algorithm { return core.NewRPD() },
			model.Params{N: n, S: -1, Seed: rng.Derive(seedBase, 4)},
			8 * core.NewRPD().Horizon(n, k)},
	}

	for _, tg := range targets {
		for _, skew := range []int64{0, 8, 128, 2048} {
			algo := model.Algorithm(core.NewClockSkewed(tg.mk(), skew))
			if skew == 0 {
				algo = tg.mk()
			}
			pats := patterns(uint64(skew) + uint64(len(tg.name)))
			rounds, ok := sweepPatterns(cfg, algo, tg.p, pats, tg.horizon)
			t.AddRow(tg.name, fmt.Sprintf("%d", skew),
				fmt.Sprintf("%d", len(pats)), fmt.Sprintf("%d/%d", ok, len(pats)),
				fmt.Sprintf("%.1f", meanOf(rounds)), fmt.Sprintf("%d", maxOf(rounds)))
		}
	}
	// Part 2: wakeup(n) at large k, where window/column coordination does
	// the real work and skew becomes expensive.
	kBig := 64
	if !cfg.Quick {
		kBig = 128
	}
	for _, skew := range []int64{0, 2048} {
		base := core.NewWakeupC()
		var algo model.Algorithm = base
		if skew > 0 {
			algo = core.NewClockSkewed(core.NewWakeupC(), skew)
		}
		p := model.Params{N: n, S: -1, Seed: rng.Derive(seedBase, 9)}
		horizon := 8 * base.Horizon(n, kBig)
		var pats []model.WakePattern
		for trial := 0; trial < trials; trial++ {
			pats = append(pats, adversary.Simultaneous(0).Generate(model.WakePattern{}, n, kBig, rng.Derive(seedBase, 0x900+uint64(trial))))
		}
		rounds, ok := sweepPatterns(cfg, algo, p, pats, horizon)
		t.AddRow(fmt.Sprintf("wakeup(n) k=%d", kBig), fmt.Sprintf("%d", skew),
			fmt.Sprintf("%d", len(pats)), fmt.Sprintf("%d/%d", ok, len(pats)),
			fmt.Sprintf("%.1f", meanOf(rounds)), fmt.Sprintf("%d", maxOf(rounds)))
	}

	t.AddNote("n=%d, k=%d (part 2: k=%d); horizons widened 4–8× so degradation shows up as latency before failure", n, k, kBig)
	t.AddNote("local_ssf and rpd schedule off their own wake clock, so their rows must be flat in skew")
	t.AddNote("small k hides the cost of desynchronization (row-1 isolation needs no coordination); large k exposes it")
	return t
}
