package adversary_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/channel"
	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// replayChannels is the channel axis of the replay fuzz target.
var replayChannels = []string{"none", "cd", "sender_cd", "ack", "noisy:0.1", "noisy:0.5", "jam:2"}

// FuzzSpoilerReplay: the spoiler's hosted run equals sim.Run replaying the
// pattern it woke, in Result, channel counters and transcript, for every
// oblivious case and channel; the hosted run without a transcript, which
// steps sparsely where it can, gives the same Result.
func FuzzSpoilerReplay(f *testing.F) {
	cases := obliviousCases(f)
	wakeupc := slices.IndexFunc(cases, func(c sweep.Case) bool { return c.Name == "wakeupc" })
	noisy := slices.Index(replayChannels, "noisy:0.1")
	// The wakeupc run whose first spoil lands at slot 0 below the first ID:
	// n=32, k=4, first=9, seed 1 (n, k and first are one past their bytes).
	f.Add(uint8(wakeupc), uint8(noisy), uint8(31), uint8(3), uint8(8), uint64(1))
	for ci := range cases {
		f.Add(uint8(ci), uint8(ci), uint8(16+8*ci), uint8(2+ci), uint8(1+3*ci), uint64(ci))
	}
	f.Fuzz(func(t *testing.T, ci, chi, nb, kb, fb uint8, seed uint64) {
		c := cases[int(ci)%len(cases)]
		ch, err := sweep.ResolveChannel(replayChannels[int(chi)%len(replayChannels)])
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + int(nb)%128
		k := 1 + int(kb)%n
		if c.MaxK > 0 {
			k = min(k, c.MaxK)
		}
		first := 1 + int(fb)%n
		algo, p, horizon := c.Algo(n, k), c.Params(n, k, seed), c.Horizon(n, k)
		opt := sim.Options{Horizon: horizon, Seed: seed, Channel: ch, RecordTrace: true}

		e := sim.NewEngine()
		sp, hosted, err := adversary.Spoiler(e, algo, p, k, first, opt)
		if err != nil {
			t.Fatal(err)
		}
		replay, rch, err := sim.Run(algo, p, sp.Pattern, opt)
		if err != nil {
			t.Fatalf("replaying %+v: %v", sp.Pattern, err)
		}
		if hosted != replay {
			t.Fatalf("%s %s n=%d k=%d first=%d: hosted %+v, replay %+v", c.Name, ch.Name(), n, k, first, hosted, replay)
		}
		if a, b := counters(e.Channel()), counters(rch); a != b {
			t.Fatalf("%s %s: hosted channel counted %v, replay %v", c.Name, ch.Name(), a, b)
		}
		if !reflect.DeepEqual(e.Channel().Trace(), rch.Trace()) {
			t.Fatalf("%s %s: hosted transcript differs from the replay's", c.Name, ch.Name())
		}
		opt.RecordTrace = false
		if _, quiet, _ := adversary.Spoiler(e, algo, p, k, first, opt); quiet != hosted {
			t.Fatalf("%s %s: unrecorded run %+v, recorded %+v", c.Name, ch.Name(), quiet, hosted)
		}
	})
}

// counters is what a channel itself counted.
func counters(ch *channel.Channel) [4]int64 {
	return [4]int64{ch.Slots(), ch.Successes(), ch.Collisions(), ch.Silences()}
}

// budgetRuns mounts the spoiler at every budget 0..k−1 on engine e.
func budgetRuns(t testing.TB, e *sim.Engine, c sweep.Case, ch model.ChannelModel, n, k, first int, seed uint64) []adversary.SpoilerResult {
	t.Helper()
	algo, p, horizon := c.Algo(n, k), c.Params(n, k, seed), c.Horizon(n, k)
	opt := sim.Options{Horizon: horizon, Seed: seed, Channel: ch}
	runs := make([]adversary.SpoilerResult, 0, k)
	for kb := 1; kb <= k; kb++ {
		sp, _, err := adversary.Spoiler(e, algo, p, kb, first, opt)
		if err != nil {
			t.Fatalf("%s %s n=%d k=%d first=%d seed=%d: %v", c.Name, ch.Name(), n, kb, first, seed, err)
		}
		runs = append(runs, sp)
	}
	return runs
}

// checkBudgetMonotone checks that runs[b+1], the attack with one more
// spoiler than runs[b], takes at least as many rounds and extends its
// pattern.
func checkBudgetMonotone(t testing.TB, key string, runs []adversary.SpoilerResult) {
	t.Helper()
	for b := 0; b+1 < len(runs); b++ {
		lo, hi := runs[b], runs[b+1]
		if hi.Rounds < lo.Rounds {
			t.Errorf("%s: budget %d gives %d rounds, budget %d only %d", key, b, lo.Rounds, b+1, hi.Rounds)
		}
		if len(hi.Pattern.IDs) < len(lo.Pattern.IDs) ||
			!slices.Equal(hi.Pattern.IDs[:len(lo.Pattern.IDs)], lo.Pattern.IDs) ||
			!slices.Equal(hi.Pattern.Wakes[:len(lo.Pattern.Wakes)], lo.Pattern.Wakes) {
			t.Errorf("%s: budget %d pattern %+v does not extend budget %d's %+v", key, b+1, hi.Pattern, b, lo.Pattern)
		}
	}
}

// TestSpoilerBudgetMonotone: one more spoiler never shortens the attack.
// With budget b+1 the run repeats the budget-b run up to its success and
// spoils on from there, so its rounds are at least as many and its pattern
// extends the budget-b pattern. Checked for every budget below k−1 on each
// row of the golden table whose attack spoils at least once.
func TestSpoilerBudgetMonotone(t *testing.T) {
	e := sim.NewEngine()
	spoilable := 0
	for _, r := range goldenInputs(t) {
		runs := budgetRuns(t, e, r.c, r.ch, r.n, r.k, r.first, r.seed)
		if runs[len(runs)-1].Spoiled == 0 {
			continue
		}
		spoilable++
		checkBudgetMonotone(t, r.key(), runs)
	}
	if spoilable == 0 {
		t.Fatal("no row of the golden table spoils: the test checks nothing")
	}
}

// FuzzSpoilerBudgetMonotone is TestSpoilerBudgetMonotone at arbitrary
// (case, channel, n ≤ 128, k, first ID, seed): every budget b < k−1 gives
// the attack no more rounds than b+1, and a pattern that b+1's extends.
func FuzzSpoilerBudgetMonotone(f *testing.F) {
	cases := obliviousCases(f)
	for ci := range cases {
		f.Add(uint8(ci), uint8(ci), uint8(16+8*ci), uint8(2+ci), uint8(1+3*ci), uint64(ci))
	}
	f.Fuzz(func(t *testing.T, ci, chi, nb, kb, fb uint8, seed uint64) {
		c := cases[int(ci)%len(cases)]
		chName := replayChannels[int(chi)%len(replayChannels)]
		ch, err := sweep.ResolveChannel(chName)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + int(nb)%128
		k := 1 + int(kb)%n
		if c.MaxK > 0 {
			k = min(k, c.MaxK)
		}
		first := 1 + int(fb)%n
		runs := budgetRuns(t, sim.NewEngine(), c, ch, n, k, first, seed)
		checkBudgetMonotone(t, fmt.Sprintf("%s %s n=%d k=%d first=%d seed=%d", c.Name, chName, n, k, first, seed), runs)
	})
}
