package sweep_test

import (
	"math"
	"testing"

	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// TestObliviousTrialAllocatesNothing: a warm engine runs a trial of each of
// sweep_oblivious's cases on each black-box pattern family and channel the
// benchmark gives them, at n = 1024, without allocating. The trial draws
// its pattern into the engine's buffer (Engine.Pattern), as Spec.Compile's
// trials do, and Reset and Run reuse the station table, the cohort and the
// cohort's own ladder. Every trial takes a new seed, so no trial is served
// the previous one's ladder from a cache.
func TestObliviousTrialAllocatesNothing(t *testing.T) {
	const n = 1024
	for _, name := range []string{"roundrobin", "localssf", "wakeupc", "wakeup_with_k", "rpd"} {
		c, err := sweep.ResolveCase(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range []string{"simultaneous", "staggered:3", "uniform:64"} {
			gen, err := sweep.ResolvePattern(entry, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, chEntry := range []string{"none", "noisy:0.1", "jam:2"} {
				ch, err := sweep.ResolveChannel(chEntry)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{4, 64} {
					algo, horizon := c.Algo(n, k), c.Horizon(n, k)
					e := sim.NewEngine()
					seed := uint64(0)
					trial := func() {
						seed++
						w := e.Pattern()
						*w = gen.Generate(*w, n, k, sweep.PatternSeed(seed))
						opt := sim.Options{Horizon: horizon, Seed: seed, Channel: ch}
						if err := e.Reset(algo, c.Params(n, k, seed), *w, opt); err != nil {
							t.Fatal(err)
						}
						e.Run()
					}
					trial() // warm the buffers
					if allocs := testing.AllocsPerRun(20, trial); allocs != 0 {
						t.Errorf("%s × %s × %s, k=%d: warm trial allocates %.1f objects, want 0", name, entry, chEntry, k, allocs)
					}
				}
			}
		}
	}
}

// TestAdaptiveTrialAllocatesNothing: a warm engine runs a trial of each of
// sweep_adaptive's cells — tree_cd and kg on the benchmark's patterns and
// feedback channels, at n ∈ {256, 1024} and k ∈ {4, 16, 64} — without
// allocating, through Run and through the stepped RunTo (-no-kernel). The
// fleet keeps its station records, and tree_cd's stacks, from trial to
// trial; each stack is reserved at its bound when first made, so one warm
// trial is enough however deep later trials drive it.
func TestAdaptiveTrialAllocatesNothing(t *testing.T) {
	for _, name := range []string{"tree_cd", "kg"} {
		c, err := sweep.ResolveCase(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range []string{"simultaneous", "staggered:3", "bursts:16"} {
			gen, err := sweep.ResolvePattern(entry, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, chEntry := range []string{"none", "cd", "sender_cd", "ack"} {
				ch, err := sweep.ResolveChannel(chEntry)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{256, 1024} {
					for _, k := range []int{4, 16, 64} {
						for _, stepped := range []bool{false, true} {
							algo, horizon := c.Algo(n, k), c.Horizon(n, k)
							e := sim.NewEngine()
							seed := uint64(0)
							trial := func() {
								seed++
								w := e.Pattern()
								*w = gen.Generate(*w, n, k, sweep.PatternSeed(seed))
								opt := sim.Options{Horizon: horizon, Seed: seed, Channel: ch, Adaptive: true}
								if err := e.Reset(algo, c.Params(n, k, seed), *w, opt); err != nil {
									t.Fatal(err)
								}
								if stepped {
									e.RunTo(math.MaxInt64)
								} else {
									e.Run()
								}
							}
							trial() // warm the buffers
							if allocs := testing.AllocsPerRun(10, trial); allocs != 0 {
								t.Errorf("%s × %s × %s, n=%d, k=%d, stepped %v: warm trial allocates %.1f objects, want 0",
									name, entry, chEntry, n, k, stepped, allocs)
							}
						}
					}
				}
			}
		}
	}
}
