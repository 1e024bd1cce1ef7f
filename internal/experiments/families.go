package experiments

import (
	"fmt"

	"nsmac/internal/mathx"
	"nsmac/internal/selectors"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// T7FamilySizes compares the lengths of the selective-family constructions
// against the Komlós–Greenberg optimum O(k + k log(n/k)) the paper's
// algorithms assume (§3): the seeded-random families match it by design;
// the explicit Kautz–Singleton families pay a quadratic factor for their
// unconditional guarantee; singletons (round-robin) cost n regardless.
// Each (n, k, construction) point is a sweep cell, so the expensive explicit
// constructions build in parallel.
func T7FamilySizes(cfg Config) *Table {
	t := &Table{
		ID:     "T7",
		Title:  "selective-family length vs the k·log(n/k) optimum",
		Claim:  "(n,k)-selective families of length O(k + k log(n/k)) exist (§3, [25])",
		Header: []string{"n", "k", "bound", "random", "random/bound", "kautz-singleton", "ks/bound", "singletons"},
	}
	ns := []int{256, 4096, 65536}
	if cfg.Quick {
		ns = []int{256, 4096}
	}

	type cell struct{ n, i, construction int } // construction: 0 = random, 1 = ks
	constructions := []string{"random", "kautz-singleton"}
	var cells []cell
	var labels [][]string
	for _, n := range ns {
		for i := 1; i <= mathx.Log2Ceil(n); i++ {
			k := int(mathx.Pow2(i))
			if k > n {
				break
			}
			if k > 256 && cfg.Quick {
				break
			}
			for c := range constructions {
				cells = append(cells, cell{n, i, c})
				labels = append(labels, []string{
					fmt.Sprintf("%d", n), fmt.Sprintf("%d", k), constructions[c],
				})
			}
		}
	}
	res, err := sweep.Grid{
		Name:    "T7",
		Axes:    []string{"n", "k", "construction"},
		Cells:   labels,
		Trials:  1,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Batch:   cfg.Batch,
		RunEngine: func(_ *sim.Engine, ci, _ int, _ uint64) sweep.Sample {
			c := cells[ci]
			var length int64
			if c.construction == 0 {
				length = selectors.RandomLength(c.n, c.i, selectors.DefaultSizeMult)
			} else {
				length = selectors.NewKautzSingleton(c.n, int(mathx.Pow2(c.i))).Length()
			}
			return sweep.Sample{OK: true, Rounds: length}
		},
	}.Execute()
	if err != nil {
		panic(fmt.Sprintf("experiments: T7 sweep: %v", err))
	}

	for i := 0; i+1 < len(res.Cells); i += 2 {
		c := cells[i]
		n, k := c.n, int(mathx.Pow2(c.i))
		bound := mathx.BoundKLogNK(n, k)
		rl := res.Cells[i].Samples[0].Rounds
		ks := res.Cells[i+1].Samples[0].Rounds
		t.AddRow(
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", bound),
			fmt.Sprintf("%d", rl), fmt.Sprintf("%.1f", float64(rl)/float64(bound)),
			fmt.Sprintf("%d", ks), fmt.Sprintf("%.1f", float64(ks)/float64(bound)),
			fmt.Sprintf("%d", n),
		)
	}
	t.AddNote("random = seeded probabilistic-method family (selective w.h.p.); ks = explicit strongly selective (provable)")
	t.AddNote("random/bound stays flat (the optimal shape); ks/bound grows with k (quadratic cost of explicitness)")
	return t
}
