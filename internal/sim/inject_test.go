package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// periodic transmits at its wake slot and every id slots after it, and names
// that next attempt in closed form.
type periodic struct{}

func (periodic) Name() string { return "periodic" }
func (periodic) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool { return t >= wake && (t-wake)%int64(id) == 0 }
}
func (periodic) BuildNext(p model.Params, id int, wake int64, _ *rng.Source) model.NextFunc {
	return func(from int64) int64 {
		if from <= wake {
			return wake
		}
		return wake + (from-wake+int64(id)-1)/int64(id)*int64(id)
	}
}
func (periodic) BuildAdaptive(p model.Params, id int, wake int64, src *rng.Source) model.AdaptiveStation {
	return periodicStation{periodic{}.Build(p, id, wake, src)}
}

type periodicStation struct{ tx model.TransmitFunc }

func (s periodicStation) WillTransmit(t int64) bool          { return s.tx(t) }
func (s periodicStation) Observe(int64, model.Feedback, int) {}

// ownSlot transmits only in the slot numbered by its ID.
type ownSlot struct{}

func (ownSlot) Name() string { return "ownSlot" }
func (ownSlot) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool { return t == int64(id) }
}

// injectAt returns a hook that spoils the i-th success it sees by injecting
// ids[i], until ids runs out.
func injectAt(ids ...int) sim.SuccessHook {
	return func(int64, int) (int, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		id := ids[0]
		ids = ids[1:]
		return id, false
	}
}

// TestInjectionMatchesReplay: a hooked run that injects stations equals a
// plain run of the final pattern — Result, channel counters and transcript —
// on the dense, sparse and adaptive paths. Station 5 wins slot 0 and the
// hook injects station 2, whose smaller ID puts it first in the slot's
// transmitters, as in the replay; station 2 then wins slot 2, where station
// 3 is injected, and wins again at slot 4.
func TestInjectionMatchesReplay(t *testing.T) {
	p := model.Params{N: 8, S: -1}
	want := model.WakePattern{IDs: []int{5, 2, 3}, Wakes: []int64{0, 0, 2}}
	for _, opt := range []sim.Options{
		{Horizon: 50, RecordTrace: true},
		{Horizon: 50},
		{Horizon: 50, Adaptive: true, RecordTrace: true},
		{Horizon: 50, Channel: model.Noisy(0.2), Seed: 3, RecordTrace: true},
	} {
		replay, rch, err := sim.Run(periodic{}, p, want, opt)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine()
		if err := e.Reset(periodic{}, p, model.WakePattern{IDs: []int{5}, Wakes: []int64{0}}, opt); err != nil {
			t.Fatal(err)
		}
		got := e.RunHooked(2, injectAt(2, 3))
		if got != replay {
			t.Errorf("%+v: hooked %#v, replay %#v", opt, got, replay)
		}
		if a, b := channelCounters(e.Channel()), channelCounters(rch); a != b {
			t.Errorf("%+v: hooked channel counted %v, replay %v", opt, a, b)
		}
		if !reflect.DeepEqual(e.Channel().Trace(), rch.Trace()) {
			t.Errorf("%+v: hooked transcript %v, replay %v", opt, e.Channel().Trace(), rch.Trace())
		}
	}
	_, rch, _ := sim.Run(periodic{}, p, want, sim.Options{Horizon: 50, RecordTrace: true})
	if tr := rch.Trace(); len(tr) != 5 || !reflect.DeepEqual(tr[0].Transmitters, []int{2, 5}) || tr[4].Winner != 2 {
		t.Fatalf("replay transcript %v does not show the tie the test relies on", tr)
	}
}

// TestInjectionRejectsBadStations: the engine refuses an injection that
// would corrupt the run — a station already in it, out of range, silent at
// its wake slot, or past the room RunHooked reserved.
func TestInjectionRejectsBadStations(t *testing.T) {
	p := model.Params{N: 8, S: -1}
	w := model.WakePattern{IDs: []int{5, 6}, Wakes: []int64{0, 40}}
	for _, c := range []struct {
		name  string
		algo  model.Algorithm
		spare int
		ids   []int
		want  string
	}{
		{"duplicate", periodic{}, 1, []int{5}, "cannot inject station 5"},
		{"pending duplicate", periodic{}, 1, []int{6}, "cannot inject station 6"},
		{"out of range", periodic{}, 1, []int{9}, "cannot inject station 9"},
		{"no room", periodic{}, 0, []int{2}, "cannot inject station 2"},
		{"silent", ownSlot{}, 1, []int{2}, "does not transmit"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), c.want) {
					t.Errorf("panic %v, want one naming %q", r, c.want)
				}
			}()
			e := sim.NewEngine()
			if err := e.Reset(c.algo, p, w, sim.Options{Horizon: 50}); err != nil {
				t.Fatal(err)
			}
			e.RunHooked(c.spare, injectAt(c.ids...))
		})
	}
}
