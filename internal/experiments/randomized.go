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

// T5RPD measures §6's randomized baselines: RPD with ℓ = 2⌈log n⌉ has
// expected wake-up O(log n); with k known, ℓ = 2⌈log k⌉ drops it to the
// optimal O(log k) (matching Kushilevitz–Mansour's Ω(log k)).
func T5RPD(cfg Config) *Table {
	t := &Table{
		ID:     "T5",
		Title:  "RPD expected wake-up rounds",
		Claim:  "E[rounds] = O(log n) for ℓ=2⌈log n⌉; O(log k) when k known; ≥ Ω(log k) always (§6)",
		Header: []string{"n", "k", "trials", "E[rpd_n]", "E[rpd_n]/log n", "E[rpd_k]", "E[rpd_k]/log k", "p95(rpd_k)"},
	}
	trials := cfg.trials(200, 1500)
	grid := []struct{ n, k int }{
		{256, 2}, {256, 16}, {256, 128},
		{4096, 2}, {4096, 16}, {4096, 128},
	}
	if !cfg.Quick {
		grid = append(grid, struct{ n, k int }{65536, 16}, struct{ n, k int }{65536, 1024})
	}

	var logKs, meansK []float64
	for _, g := range grid {
		n, k := g.n, g.k
		seed := cfg.seed(uint64(n)<<24 | uint64(k))

		// Each algorithm is one sweep cell; the trial index drives the
		// original per-trial seed derivation, so tables are unchanged.
		measure := func(algo model.Algorithm, p model.Params, horizon int64) stats.Summary {
			res, err := sweep.Grid{
				Name:    "T5",
				Axes:    []string{"algo"},
				Cells:   [][]string{{algo.Name()}},
				Trials:  trials,
				Seed:    seed,
				Workers: cfg.Workers,
				Batch:   cfg.Batch,
				RunEngine: func(e *sim.Engine, _, i int, _ uint64) sweep.Sample {
					tSeed := rng.Derive(seed, uint64(i))
					pp := p
					pp.Seed = tSeed
					w := simultaneous(e, n, k, rng.Derive(tSeed, 1))
					if err := e.Reset(algo, pp, w, sim.Options{Horizon: horizon, Seed: tSeed}); err != nil {
						panic(err)
					}
					r := e.Run()
					if !r.Succeeded {
						r.Rounds = horizon
					}
					return sweep.Sample{
						OK: r.Succeeded, Rounds: r.Rounds,
						Collisions: r.Collisions, Silences: r.Silences,
						Transmissions: r.Transmissions,
					}
				},
			}.Execute()
			if err != nil {
				panic(err)
			}
			return res.Cells[0].Agg.Summary()
		}

		rpdN := core.NewRPD()
		sumN := measure(rpdN, model.Params{N: n, S: -1}, rpdN.Horizon(n, k))
		rpdK := core.NewRPDWithK()
		sumK := measure(rpdK, model.Params{N: n, K: k, S: -1}, rpdK.Horizon(n, k))

		logN := float64(mathx.Log2Ceil(n))
		logK := float64(max(1, mathx.Log2Ceil(max(2, k))))
		logKs = append(logKs, logK)
		meansK = append(meansK, sumK.Mean)

		t.AddRow(
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", k), fmt.Sprintf("%d", trials),
			fmt.Sprintf("%.1f", sumN.Mean), fmt.Sprintf("%.2f", sumN.Mean/logN),
			fmt.Sprintf("%.1f", sumK.Mean), fmt.Sprintf("%.2f", sumK.Mean/logK),
			fmt.Sprintf("%.0f", sumK.P95),
		)
	}
	if len(logKs) >= 2 {
		// Shape: E[rpd_k] should track log k, not log n.
		fit := stats.LinearFit(logKs, meansK)
		t.AddNote("E[rpd_k] ≈ %.2f·log k %+.1f (R²=%.3f) across the grid", fit.Slope, fit.Intercept, fit.R2)
	}
	t.AddNote("simultaneous wake at 0; failures (none expected) counted at horizon")
	return t
}
