package sim_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// periodic transmits at its wake slot and every id slots after it. Its
// cohort names the earliest next attempt, so the engine skips the silent
// slots before it.
type periodic struct{}

func (periodic) Name() string { return "periodic" }
func (periodic) Build(p model.Params, id int, wake int64, _ *rng.Source) model.TransmitFunc {
	return func(t int64) bool { return t >= wake && (t-wake)%int64(id) == 0 }
}
func (periodic) Cohort(p model.Params, prev model.Cohort) model.Cohort {
	c, _ := prev.(*periodicCohort)
	if c == nil {
		c = new(periodicCohort)
	}
	*c = (*c)[:0]
	return c
}

// periodicCohort is periodic's joined stations in join order.
type periodicCohort []model.WakeKey

// periodicNext is st's first attempt at or after slot from.
func periodicNext(st model.WakeKey, from int64) int64 {
	if from <= st.Wake {
		return st.Wake
	}
	id := int64(st.ID)
	return st.Wake + (from-st.Wake+id-1)/id*id
}

func (c *periodicCohort) Join(id int, wake int64, _ *rng.Source) {
	*c = append(*c, model.WakeKey{Wake: wake, ID: id})
}
func (c *periodicCohort) JoinAt(i, id int, wake int64, _ *rng.Source) bool {
	*c = slices.Insert(*c, i, model.WakeKey{Wake: wake, ID: id})
	return true
}
func (c *periodicCohort) Transmitters(t int64, dst []int) []int {
	for _, st := range *c {
		if periodicNext(st, t) == t {
			dst = append(dst, st.ID)
		}
	}
	return dst
}
func (c *periodicCohort) Next(from int64) int64 {
	u := model.Never
	for _, st := range *c {
		u = min(u, periodicNext(st, from))
	}
	return u
}

func (periodic) Fleet(p model.Params, _ model.Fleet) model.Fleet {
	return &sim.FixtureFleet{New: func(id int, wake int64) sim.FixtureStation {
		return periodicStation{periodic{}.Build(p, id, wake, nil)}
	}}
}

type periodicStation struct{ tx model.TransmitFunc }

func (s periodicStation) Transmits(t int64) bool          { return s.tx(t) }
func (s periodicStation) Hear(int64, model.Feedback, int) {}

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
// on a cohort that skips silent slots, on the closure cohort and on the
// adaptive path. Station
// 5 wins slot 0 and the hook injects station 2, whose smaller ID puts it
// first in the slot's transmitters, as in the replay; station 2 then wins
// slot 2, where station 3 is injected, and wins again at slot 4.
func TestInjectionMatchesReplay(t *testing.T) {
	p := model.Params{N: 8, S: -1}
	want := model.WakePattern{IDs: []int{5, 2, 3}, Wakes: []int64{0, 0, 2}}
	for _, opt := range []sim.Options{
		{Horizon: 50, RecordTrace: true},
		{Horizon: 50},
		{Horizon: 50, Adaptive: true, RecordTrace: true},
		{Horizon: 50, Channel: model.Noisy(0.2), Seed: 3, RecordTrace: true},
	} {
		for _, algo := range []model.Algorithm{periodic{}, denseOnly{periodic{}}} {
			replay, rch, err := sim.Run(algo, p, want, opt)
			if err != nil {
				t.Fatal(err)
			}
			e := sim.NewEngine()
			if err := e.Reset(algo, p, model.WakePattern{IDs: []int{5}, Wakes: []int64{0}}, opt); err != nil {
				t.Fatal(err)
			}
			if skips := algo == (periodic{}) && !opt.Adaptive && !opt.RecordTrace; e.SteppingSparse() != skips {
				t.Fatalf("%T %+v: engine skips silent slots: %v, want %v", algo, opt, e.SteppingSparse(), skips)
			}
			got := e.RunHooked(2, injectAt(2, 3))
			if got != replay {
				t.Errorf("%T %+v: hooked %#v, replay %#v", algo, opt, got, replay)
			}
			if a, b := channelCounters(e.Channel()), channelCounters(rch); a != b {
				t.Errorf("%T %+v: hooked channel counted %v, replay %v", algo, opt, a, b)
			}
			if !reflect.DeepEqual(e.Channel().Trace(), rch.Trace()) {
				t.Errorf("%T %+v: hooked transcript %v, replay %v", algo, opt, e.Channel().Trace(), rch.Trace())
			}
		}
	}
	_, rch, _ := sim.Run(periodic{}, p, want, sim.Options{Horizon: 50, RecordTrace: true})
	if tr := rch.Trace(); len(tr) != 5 || !reflect.DeepEqual(tr[0].Transmitters, []int{2, 5}) || tr[4].Winner != 2 {
		t.Fatalf("replay transcript %v does not show the tie the test relies on", tr)
	}
}

// TestInjectionRejectsBadStations: the engine refuses an injection that
// would corrupt the run — a station already in it, out of range, silent at
// its wake slot, or past the room RunHooked reserved, also on a warm engine
// whose station table kept the capacity of a larger earlier trial.
func TestInjectionRejectsBadStations(t *testing.T) {
	p := model.Params{N: 8, S: -1}
	w := model.WakePattern{IDs: []int{5, 6}, Wakes: []int64{0, 40}}
	for _, c := range []struct {
		name  string
		algo  model.Algorithm
		warm  bool
		spare int
		ids   []int
		want  string
	}{
		{"duplicate", periodic{}, false, 1, []int{5}, "cannot inject station 5"},
		{"pending duplicate", periodic{}, false, 1, []int{6}, "cannot inject station 6"},
		{"out of range", periodic{}, false, 1, []int{9}, "cannot inject station 9"},
		{"no room", periodic{}, false, 0, []int{2}, "cannot inject station 2"},
		{"no room, warm engine", periodic{}, true, 0, []int{2}, "cannot inject station 2"},
		{"silent", ownSlot{}, false, 1, []int{2}, "does not transmit"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), c.want) {
					t.Errorf("panic %v, want one naming %q", r, c.want)
				}
			}()
			e := sim.NewEngine()
			if c.warm {
				big := model.WakePattern{IDs: []int{1, 3, 5, 7}, Wakes: []int64{0, 0, 0, 0}}
				if err := e.Reset(c.algo, p, big, sim.Options{Horizon: 50}); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Reset(c.algo, p, w, sim.Options{Horizon: 50}); err != nil {
				t.Fatal(err)
			}
			e.RunHooked(c.spare, injectAt(c.ids...))
		})
	}
}
