package sweep_test

import (
	"testing"

	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// The executors a cell's trials can run on.
const (
	routeEngine = "engine"
	routeMemo   = "kernel memo"
	routeEpoch  = "kernel epoch"
)

// expectedRoute derives a cell's route from its case's adaptivity and
// schedule class and from the channel's collision delivery, on a channel the
// kernel can execute: an adaptive algorithm runs feedback epochs when it
// declares them and the channel delivers a collision as silence to every
// role, an oblivious one runs the memoized word scan when its schedule is
// seed-insensitive, and everything else — seed-sensitive schedules and
// collision-hearing adaptive cells included — runs on the engine.
func expectedRoute(c sweep.Case, ch model.ChannelModel, n, k int) string {
	algo := c.Algo(n, k)
	if _, adaptive := algo.(model.Adaptive); adaptive && c.Adaptive {
		collisionSilent := ch.Deliver(model.Collision, false, false) == model.Silence &&
			ch.Deliver(model.Collision, true, false) == model.Silence
		if _, ok := algo.(model.EpochOblivious); ok && collisionSilent {
			return routeEpoch
		}
		return routeEngine
	}
	if cls, ok := model.AlgorithmClass(algo); ok && !cls.SeedSensitive {
		return routeMemo
	}
	return routeEngine
}

// observedRoute runs the one trial of a one-cell spec through its compiled
// grid and reports where it ran. A grid trial routed to the engine runs on
// the engine it is handed; a kernel trial leaves that engine untouched.
// Replaying the trial on a fresh kernel then tells the kernel's routes
// apart: the memoized oblivious scan caches every station's schedule, the
// epoch executor caches nothing.
func observedRoute(t *testing.T, c sweep.Case, ch model.ChannelModel, n, k int) string {
	t.Helper()
	gens, err := sweep.ParsePatterns("simultaneous")
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Name: "route", Cases: []sweep.Case{c}, Patterns: gens,
		Channels: []model.ChannelModel{ch}, Ns: []int{n}, Ks: []int{k}, Trials: 1, Seed: 7,
	}
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	seed := sweep.TrialSeed(spec.Seed, 0, 0)
	eng := sim.NewEngine()
	g.RunEngine(eng, 0, 0, seed)
	if eng.Done() {
		return routeEngine
	}

	algo, p, horizon := c.Algo(n, k), c.Params(n, k, seed), c.Horizon(n, k)
	w := gens[0].Pattern(algo, p, k, horizon, sweep.PatternSeed(seed), ch)
	kn := kernel.New()
	if err := kn.Reset(algo, p, w, sim.Options{Horizon: horizon, Seed: seed, Channel: ch, Adaptive: c.Adaptive}); err != nil {
		t.Fatalf("%s × %s left the engine, but the kernel refuses it: %v", c.Name, ch.Name(), err)
	}
	kn.Run()
	switch {
	case kn.CachedSchedules() > 0:
		return routeMemo
	case c.Adaptive: // only adaptive runs reach the epoch executor
		return routeEpoch
	}
	return "kernel, rendered per trial"
}

// TestCellRoutingTable pins per-cell executor routing: every registered case
// on the none, cd and noisy:0.1 channels runs on the route its schedule
// class, adaptivity and channel call for. Seed-sensitive oblivious schedules
// (the paper's Scenario B/C algorithms, RPD, BEB) and adaptive cells on cd
// must stay on the engine, where they run faster than on the kernel.
func TestCellRoutingTable(t *testing.T) {
	const n, k = 16, 4
	seen := map[string]int{}
	for _, name := range sweep.CaseNames() {
		c, err := sweep.ResolveCase(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, chName := range []string{"none", "cd", "noisy:0.1"} {
			ch, err := sweep.ResolveChannel(chName)
			if err != nil {
				t.Fatal(err)
			}
			want := expectedRoute(c, ch, n, k)
			if got := observedRoute(t, c, ch, n, k); got != want {
				t.Errorf("%s × %s runs on the %s, want the %s", name, chName, got, want)
			}
			seen[want]++
		}
	}
	for _, r := range []string{routeEngine, routeMemo, routeEpoch} {
		if seen[r] == 0 {
			t.Errorf("no registered case routes to the %s: the table has lost a row", r)
		}
	}
}
