package experiments

import (
	"fmt"

	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// T6Comparison puts every algorithm on the same workload grid — the paper's
// §1 motivation made measurable: selective-family algorithms win for
// k ≪ n, round-robin wins as k approaches n (Corollary 2.1), and the
// Scenario C algorithm pays roughly a log log n factor over Scenario B for
// its lack of knowledge.
func T6Comparison(cfg Config) *Table {
	n := 1024
	ks := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	if cfg.Quick {
		n = 256
		ks = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	t := &Table{
		ID:    "T6",
		Title: fmt.Sprintf("worst rounds per algorithm, n=%d, simultaneous wake", n),
		Claim: "selective algorithms beat TDM for k ≪ n; TDM optimal for k > n/c (§1–4)",
		Header: []string{"k", "round_robin", "wakeup_with_s", "wakeup_with_k",
			"wakeup(n)", "E[rpd_n]", "E[beb]", "local_ssf", "winner(det)"},
	}
	trials := cfg.trials(2, 5)
	rpdTrials := cfg.trials(100, 400)

	for _, k := range ks {
		if k > n {
			continue
		}
		seed := cfg.seed(uint64(k) << 8)
		ids := func(trial int) []int {
			return rng.New(rng.Derive(seed, uint64(trial))).Sample(nil, n, k)
		}

		worstDet := func(algo model.Algorithm, p model.Params, horizon int64) int64 {
			var pats []model.WakePattern
			for trial := 0; trial < trials; trial++ {
				pats = append(pats, model.Simultaneous(ids(trial), 0))
			}
			rounds, _ := sweepPatterns(cfg, algo, p, pats, horizon)
			return maxOf(rounds)
		}

		rr := worstDet(core.NewRoundRobin(), model.Params{N: n, S: -1, Seed: seed}, core.NewRoundRobin().Horizon(n, k))
		wws := worstDet(core.NewWakeupWithS(), model.Params{N: n, S: 0, Seed: seed}, core.WakeupWithSHorizon(n, k))
		wwk := worstDet(core.NewWakeupWithK(), model.Params{N: n, K: k, S: -1, Seed: seed}, core.WakeupWithKHorizon(n, k))

		// Scenario C is the most expensive to simulate at large k; in quick
		// mode keep it to the regime the theorem targets (k ≪ n).
		wcCell := "-"
		wcRounds := int64(-1)
		if !cfg.Quick || k <= 128 {
			a := core.NewWakeupC()
			wcRounds = worstDet(a, model.Params{N: n, S: -1, Seed: seed}, a.Horizon(n, k))
			wcCell = fmt.Sprintf("%d", wcRounds)
		}

		// The randomized baselines report means (Las Vegas, not worst-case);
		// each baseline is one sweep cell whose trials keep the original
		// tag-offset seed derivation.
		meanRand := func(algo model.Algorithm, horizon int64, tag uint64) float64 {
			res, err := sweep.Grid{
				Name:    "T6-rand",
				Axes:    []string{"algo"},
				Cells:   [][]string{{algo.Name()}},
				Trials:  rpdTrials,
				Seed:    seed,
				Workers: cfg.Workers,
				RunEngine: func(e *sim.Engine, _, i int, _ uint64) sweep.Sample {
					tSeed := rng.Derive(seed, tag+uint64(i))
					w := simultaneous(e, n, k, tSeed)
					if err := e.Reset(algo, model.Params{N: n, S: -1, Seed: tSeed}, w,
						sim.Options{Horizon: horizon, Seed: tSeed}); err != nil {
						panic(err)
					}
					r := e.Run()
					if !r.Succeeded {
						r.Rounds = horizon
					}
					return sweep.Sample{OK: r.Succeeded, Rounds: r.Rounds,
						Collisions: r.Collisions, Silences: r.Silences,
						Transmissions: r.Transmissions}
				},
			}.Execute()
			if err != nil {
				panic(err)
			}
			return res.Cells[0].Agg.Summary().Mean
		}
		rpd := core.NewRPD()
		rpdMean := meanRand(rpd, rpd.Horizon(n, k), 0xabc)
		beb := core.NewBEB()
		bebMean := meanRand(beb, beb.Horizon(n, k), 0xbeb0000)

		// LocalSSF's Kautz–Singleton ladders grow quadratically; keep it in
		// its feasible regime.
		lsCell := "-"
		if k <= 64 {
			ls := core.NewLocalSSF()
			lsRounds := worstDet(ls, model.Params{N: n, K: k, S: -1, Seed: seed}, ls.Horizon(n, k))
			if lsRounds >= ls.Horizon(n, k) {
				lsCell = "FAIL"
			} else {
				lsCell = fmt.Sprintf("%d", lsRounds)
			}
		}

		// Deterministic winner among the algorithms valid in each scenario.
		winner := "round_robin"
		best := rr
		if wws < best {
			winner, best = "wakeup_with_s", wws
		}
		if wwk < best {
			winner, best = "wakeup_with_k", wwk
		}
		if wcRounds >= 0 && wcRounds < best {
			winner, best = "wakeup(n)", wcRounds
		}

		t.AddRow(
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", rr), fmt.Sprintf("%d", wws), fmt.Sprintf("%d", wwk),
			wcCell, fmt.Sprintf("%.1f", rpdMean), fmt.Sprintf("%.1f", bebMean),
			lsCell, winner,
		)
	}
	t.AddNote("winner(det) = fewest worst-case rounds among the deterministic algorithms run at that k")
	t.AddNote("the crossover to round_robin as k→n reproduces Corollary 2.1's n−k+1 regime")
	return t
}
