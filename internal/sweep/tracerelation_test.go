package sweep_test

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// TestRecordTraceLeavesResultUnchanged checks the trace-consistency
// relation on every registered case and built-in channel family: a run
// that records its transcript has the Result of the same run unrecorded,
// and, unless the transcript is truncated, its tallies are the Result's
// Slots, Transmissions, Collisions and Silences. A recorded run resolves
// every slot, so this also compares each oblivious case stepped slot by
// slot with the same case skipping its silent slots.
func TestRecordTraceLeavesResultUnchanged(t *testing.T) {
	gens := testPatterns(t, "simultaneous", "staggered:3", "uniform:16")
	eng := sim.NewEngine()
	runs, tallied := 0, 0
	for _, name := range sweep.CaseNames() {
		c, err := sweep.ResolveCase(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, chName := range relationChannels {
			ch, err := sweep.ResolveChannel(chName)
			if err != nil {
				t.Fatal(err)
			}
			for _, nk := range [][2]int{{8, 2}, {16, 4}, {64, 7}} {
				n, k := nk[0], nk[1]
				if c.MaxK > 0 && k > c.MaxK {
					continue
				}
				algo := c.Algo(n, k)
				for _, gen := range gens {
					seed := rng.Derive(0x7ace, uint64(runs))
					runs++
					p := c.Params(n, k, seed)
					w := gen.Generate(model.WakePattern{}, n, k, sweep.PatternSeed(seed))
					opt := sim.Options{Horizon: c.Horizon(n, k), Channel: ch, Adaptive: c.Adaptive, Seed: seed}
					run := func(record bool) model.Result {
						opt.RecordTrace = record
						if err := eng.Reset(algo, p, w, opt); err != nil {
							t.Fatalf("%s × %s × %s: %v", name, chName, gen.Name, err)
						}
						return eng.Run()
					}
					want := run(false)
					got := run(true)
					if got != want {
						t.Fatalf("%s × %s × %s n=%d k=%d: recorded %#v, unrecorded %#v", name, chName, gen.Name, n, k, got, want)
					}
					if eng.Channel().Truncated() {
						continue
					}
					tallied++
					var tally model.Result
					for _, ev := range eng.Channel().Trace() {
						tally.Slots++
						tally.Transmissions += int64(len(ev.Transmitters))
						switch ev.Truth {
						case model.Collision:
							tally.Collisions++
						case model.Silence:
							tally.Silences++
						}
					}
					if tally.Slots != got.Slots || tally.Transmissions != got.Transmissions ||
						tally.Collisions != got.Collisions || tally.Silences != got.Silences {
						t.Fatalf("%s × %s × %s n=%d k=%d: transcript tallies %d slots, %d transmissions, %d collisions, %d silences; Result %#v",
							name, chName, gen.Name, n, k, tally.Slots, tally.Transmissions, tally.Collisions, tally.Silences, got)
					}
				}
			}
		}
	}
	if tallied == 0 {
		t.Fatalf("%d runs, no transcript tallied: every transcript was truncated", runs)
	}
	t.Logf("%d runs, %d transcripts tallied", runs, tallied)
}
