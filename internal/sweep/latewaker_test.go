package sweep_test

import (
	"slices"
	"testing"

	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// TestLateWakerLeavesResultUnchanged checks a metamorphic relation of the
// model on every registered case and built-in channel family: with Params
// and horizon held fixed (at K = k+1), adding a station with an unused ID
// that wakes after the first success leaves the Result unchanged — on the
// engine and, for the cells it serves, on kernel.Run.
func TestLateWakerLeavesResultUnchanged(t *testing.T) {
	gens, err := sweep.ParsePatterns("simultaneous,staggered:3,uniform:16,bursts:4")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	runs, checks, closedForm := 0, 0, 0
	for _, name := range sweep.CaseNames() {
		c, err := sweep.ResolveCase(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, chName := range []string{"none", "cd", "sender_cd", "ack", "noisy:0.1", "jam:2"} {
			ch, err := sweep.ResolveChannel(chName)
			if err != nil {
				t.Fatal(err)
			}
			for _, nk := range [][2]int{{8, 1}, {16, 4}, {64, 7}} {
				n, k := nk[0], nk[1]
				if c.MaxK > 0 && k+1 > c.MaxK {
					continue
				}
				algo := c.Algo(n, k+1)
				opt := sim.Options{Horizon: c.Horizon(n, k+1), Channel: ch, Adaptive: c.Adaptive}
				for _, gen := range gens {
					for trial := 0; trial < 2; trial++ {
						opt.Seed = rng.Derive(0x1a7e, uint64(runs))
						runs++
						p := c.Params(n, k+1, opt.Seed)
						w := gen.Generate(n, k, sweep.PatternSeed(opt.Seed))
						if err := eng.Reset(algo, p, w, opt); err != nil {
							t.Fatalf("%s × %s × %s: %v", name, chName, gen.Name, err)
						}
						want := eng.Run()
						if !want.Succeeded {
							continue
						}
						// The smallest or the largest unused ID, woken in the
						// slot right after the success.
						id := 1
						if trial == 1 {
							id = n
						}
						for slices.Contains(w.IDs, id) {
							id += 1 - 2*trial
						}
						late := model.WakePattern{
							IDs:   append(slices.Clone(w.IDs), id),
							Wakes: append(slices.Clone(w.Wakes), want.SuccessSlot+1),
						}
						if err := eng.Reset(algo, p, late, opt); err != nil {
							t.Fatal(err)
						}
						if got := eng.Run(); got != want {
							t.Fatalf("%s × %s × %s n=%d k=%d: station %d waking at %d changed the engine's Result\n%#v\n%#v",
								name, chName, gen.Name, n, k, id, want.SuccessSlot+1, got, want)
						}
						checks++
						if !kernel.Eligible(algo, opt) {
							continue
						}
						for _, pat := range []model.WakePattern{w, late} {
							if got, err := kernel.Run(algo, p, pat, opt); err != nil || got != want {
								t.Fatalf("%s × %s × %s n=%d k=%d: kernel.Run %#v, %v; engine %#v",
									name, chName, gen.Name, n, k, got, err, want)
							}
						}
						closedForm++
					}
				}
			}
		}
	}
	if checks == 0 || closedForm == 0 {
		t.Fatalf("%d engine checks, %d closed-form checks: the table has lost its rows", checks, closedForm)
	}
	t.Logf("%d engine checks, %d closed-form checks", checks, closedForm)
}
