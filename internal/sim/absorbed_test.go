package sim_test

import (
	"math"
	"testing"

	"nsmac/internal/adversary"
	"nsmac/internal/channel"
	"nsmac/internal/core"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// looper is a fixture adaptive algorithm. Its station transmits in every
// slot until it hears two non-collisions in a row, then listens for
// 1 + id%3 slots and starts over. It loops whenever it will transmit: a
// collision it hears as Collision only keeps it transmitting.
// Unlike tree_cd it loops right after hearing a collision as silence, so a
// channel that silences a sender's collision must not let its trial absorb.
type looper struct{}

func (looper) Name() string { return "looper" }

func (looper) Build(model.Params, int, int64, *rng.Source) model.TransmitFunc {
	panic("looper is adaptive")
}

func (looper) Fleet(model.Params, model.Fleet) model.Fleet {
	return &sim.FixtureFleet{New: func(id int, _ int64) sim.FixtureStation { return &looperStation{id: id} }}
}

type looperStation struct{ id, wait, quiet int }

func (s *looperStation) Transmits(int64) bool { return s.wait == 0 }

func (s *looperStation) Looping() bool { return s.wait == 0 }

func (s *looperStation) Hear(_ int64, fb model.Feedback, _ int) {
	switch {
	case s.wait > 0:
		s.wait--
	case fb == model.Collision:
		s.quiet = 0
	default:
		if s.quiet++; s.quiet == 2 {
			s.quiet, s.wait = 0, 1+s.id%3
		}
	}
}

// observed wraps an adaptive algorithm and counts the feedback its fleet's
// stations are told, so a test sees how many station-slots a run stepped.
type observed struct {
	model.Adaptive
	n *int64
}

func (a observed) Fleet(p model.Params, _ model.Fleet) model.Fleet {
	return &observedFleet{Fleet: a.Adaptive.Fleet(p, nil), n: a.n}
}

type observedFleet struct {
	model.Fleet
	joined int64
	n      *int64
}

func (f *observedFleet) Join(id int, wake int64, src *rng.Source) {
	f.joined++
	f.Fleet.Join(id, wake, src)
}

func (f *observedFleet) Observe(t int64, d model.Delivery) {
	*f.n += f.joined
	f.Fleet.Observe(t, d)
}

// counters is a channel's tally.
type counters struct{ slots, successes, collisions, silences int64 }

func tally(c *channel.Channel) counters {
	return counters{c.Slots(), c.Successes(), c.Collisions(), c.Silences()}
}

// simultaneousTrial resets e to a tree_cd trial of k stations of n woken at
// slot 0 on ch, with stations counting into *obs, and returns its horizon.
func simultaneousTrial(t *testing.T, e *sim.Engine, n, k int, ch model.ChannelModel, obs *int64) int64 {
	t.Helper()
	tree := core.NewTreeCD()
	w := adversary.Simultaneous(0).Generate(model.WakePattern{}, n, k, 11)
	opt := sim.Options{Horizon: tree.Horizon(n, k), Channel: ch, Adaptive: true, Seed: 5}
	if err := e.Reset(observed{tree, obs}, model.Params{N: n, S: -1, Seed: 5}, w, opt); err != nil {
		t.Fatal(err)
	}
	return opt.Horizon
}

// TestAbsorbedFinishTakenOnSenderCD: a simultaneous tree_cd trial at
// n = 1024, k = 64 on sender_cd livelocks within a tenth of its horizon,
// and Run finishes it there, stepping no further slot, with the result and
// channel counters of the dense run. On cd the stacks stay in lockstep, so
// the same trial never absorbs and Run steps every slot.
func TestAbsorbedFinishTakenOnSenderCD(t *testing.T) {
	const n, k = 1024, 64
	for _, tc := range []struct {
		ch      model.ChannelModel
		absorbs bool
	}{{model.SenderCD(), true}, {model.CD(), false}} {
		var obs int64
		// The dense reference, asking after every slot whether the trial
		// is absorbed.
		dense := sim.NewEngine()
		horizon := simultaneousTrial(t, dense, n, k, tc.ch, &obs)
		at := int64(-1)
		for !dense.Step() {
			if at < 0 && dense.Absorbed() {
				at = dense.Result().Slots
			}
		}
		want, wantCh := dense.Result(), tally(dense.Channel())

		obs = 0
		e := sim.NewEngine()
		simultaneousTrial(t, e, n, k, tc.ch, &obs)
		got := e.Run()
		if got != want || tally(e.Channel()) != wantCh {
			t.Fatalf("%s: Run = %#v %+v, dense %#v %+v", tc.ch.Name(), got, tally(e.Channel()), want, wantCh)
		}
		stepped := obs / k
		if !tc.absorbs {
			if at >= 0 || stepped != want.Slots {
				t.Fatalf("%s: absorbed at slot %d; Run stepped %d of %d slots", tc.ch.Name(), at, stepped, want.Slots)
			}
			continue
		}
		if want.Succeeded || at < 0 || at > horizon/10 {
			t.Fatalf("%s: dense run %+v absorbed at slot %d, want a failure absorbed by slot %d",
				tc.ch.Name(), want, at, horizon/10)
		}
		t.Logf("%s: absorbed at slot %d of %d", tc.ch.Name(), at, horizon)
		if stepped != at {
			t.Fatalf("%s: Run stepped %d slots, want %d (where the trial absorbed)", tc.ch.Name(), stepped, at)
		}
	}
}

// absorbChannels are the six channel families, one parameter each.
var absorbChannels = []model.ChannelModel{
	model.None(), model.CD(), model.SenderCD(), model.Ack(), model.Noisy(0.1), model.Jam(2),
}

// FuzzAbsorbedFinish checks Engine.Run, which finishes an absorbed trial
// without stepping it, against dense stepping (RunTo), on the full result
// and the channel counters: tree_cd, kg and the looper fixture, over n, k,
// the wake shape, the seed, the channel and a prefix stepped before Run.
func FuzzAbsorbedFinish(f *testing.F) {
	for algo := uint8(0); algo < 3; algo++ {
		for shape := uint8(0); shape < 4; shape++ {
			for ch := uint8(0); ch < uint8(len(absorbChannels)); ch++ {
				f.Add(uint16(1022), uint8(63), shape, uint8(3), uint64(algo)<<8|uint64(shape), ch, algo, uint8(0))
			}
		}
	}
	f.Add(uint16(15), uint8(15), uint8(2), uint8(5), uint64(9), uint8(1), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, n16 uint16, k8 uint8, shape, arg uint8, seed uint64, ch, algo, cut uint8) {
		n := 2 + int(n16%1023)
		k := 1 + int(k8)%min(n, 64)
		var gen adversary.Generator
		switch shape % 4 {
		case 0:
			gen = adversary.Simultaneous(0)
		case 1:
			gen = adversary.Staggered(0, int64(arg%5))
		case 2:
			gen = adversary.Bursts(0, 1+int(arg%16), int64(arg%40))
		default:
			gen = adversary.UniformWindow(0, int64(arg))
		}
		w := gen.Generate(model.WakePattern{}, n, k, seed)
		tree := core.NewTreeCD()
		horizon := tree.Horizon(n, k)
		var a model.Algorithm
		switch algo % 3 {
		case 0:
			a = tree
		case 1:
			a = core.NewKGConflictResolution()
		default:
			a = looper{}
		}
		p := model.Params{N: n, S: -1, Seed: seed}
		opt := sim.Options{Horizon: horizon, Channel: absorbChannels[int(ch)%len(absorbChannels)], Adaptive: true, Seed: seed}

		dense, e := sim.NewEngine(), sim.NewEngine()
		for _, x := range []*sim.Engine{dense, e} {
			if err := x.Reset(a, p, w, opt); err != nil {
				t.Fatal(err)
			}
		}
		dense.RunTo(math.MaxInt64)
		e.RunTo(w.FirstWake() + int64(cut))
		if got, want := e.Run(), dense.Result(); got != want {
			t.Fatalf("%s on %s, pattern %v, prefix %d: Run = %#v, dense %#v", a.Name(), opt.Channel.Name(), w, cut, got, want)
		}
		// A trial Run finishes in closed form from its first slot leaves the
		// channel unstepped (see sim.ClosedForm).
		closed := sim.ClosedForm(a, opt) && cut == 0
		if got, want := tally(e.Channel()), tally(dense.Channel()); !e.Done() || e.Slot() != dense.Slot() || !closed && got != want {
			t.Fatalf("%s on %s, pattern %v, prefix %d: Run ends at slot %d with %+v, dense at %d with %+v",
				a.Name(), opt.Channel.Name(), w, cut, e.Slot(), got, dense.Slot(), want)
		}
	})
}
