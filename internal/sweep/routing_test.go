package sweep_test

import (
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/internal/sweep"
)

// The executors a cell's trials can run on.
const (
	routeEngine = "engine"
	routeEpoch  = "closed form"
)

// expectedRoute derives a cell's route from its case's adaptivity and from
// the channel's collision delivery: an adaptive algorithm runs in closed
// form when it declares model.Persistent and the channel delivers a
// collision as silence to every role; everything else — every oblivious
// schedule and the collision-hearing adaptive cells — runs on the engine.
func expectedRoute(c sweep.Case, ch model.ChannelModel, n, k int) string {
	algo := c.Algo(n, k)
	if _, adaptive := algo.(model.Adaptive); adaptive && c.Adaptive {
		collisionSilent := ch.Deliver(model.Collision, false, false) == model.Silence &&
			ch.Deliver(model.Collision, true, false) == model.Silence
		if _, ok := algo.(model.Persistent); ok && collisionSilent {
			return routeEpoch
		}
	}
	return routeEngine
}

// observedRoute runs the one trial of a one-cell spec through its compiled
// grid and reports how it ran. Every trial runs on the engine it is handed;
// a closed-form trial counts its slots in the Result but leaves the
// engine's channel unstepped.
func observedRoute(t *testing.T, c sweep.Case, ch model.ChannelModel, n, k int) string {
	t.Helper()
	spec := sweep.Spec{
		Name: "route", Cases: []sweep.Case{c}, Patterns: testPatterns(t, "simultaneous"),
		Channels: []model.ChannelModel{ch}, Ns: []int{n}, Ks: []int{k}, Trials: 1, Seed: 7,
	}
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	g.RunEngine(eng, 0, 0, sweep.TrialSeed(spec.Seed, 0, 0))
	if eng.Channel().Slots() == 0 && eng.Result().Slots > 0 {
		return routeEpoch
	}
	return routeEngine
}

// TestCellRoutingTable pins per-cell executor routing: every registered case
// on every built-in channel runs on the route its adaptivity and channel call
// for. Every oblivious case runs on the engine, which steps the schedules
// that name their next attempt sparsely, and so do adaptive cells on cd and
// sender_cd.
func TestCellRoutingTable(t *testing.T) {
	const n, k = 16, 4
	seen := map[string]int{}
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
			want := expectedRoute(c, ch, n, k)
			if got := observedRoute(t, c, ch, n, k); got != want {
				t.Errorf("%s × %s runs on the %s, want the %s", name, chName, got, want)
			}
			seen[want]++
		}
	}
	for _, r := range []string{routeEngine, routeEpoch} {
		if seen[r] == 0 {
			t.Errorf("no registered case routes to the %s: the table has lost a row", r)
		}
	}
}
