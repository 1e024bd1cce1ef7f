package sim

import (
	"slices"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// SteppingSparse reports whether the engine's current trial may jump over
// silent slots: it steps a Batched algorithm's own cohort and its channel
// lets silence be skipped.
func (e *Engine) SteppingSparse() bool { return e.SteppingBatched() && e.ch.SkipsSilence() }

// SteppingBatched reports whether the engine's current trial asks a
// Batched algorithm's own cohort for each slot's transmitters.
func (e *Engine) SteppingBatched() bool { return e.cohort != nil && e.cohort == e.batched }

// Absorbed reports whether Run or RunHooked would now finish the trial
// without stepping it further (see absorbed).
func (e *Engine) Absorbed() bool { return e.absorbed() }

// FixtureStation is one station of a test fixture's fleet: whether it
// transmits in slot t, and what it hears there.
type FixtureStation interface {
	Transmits(t int64) bool
	Hear(t int64, fb model.Feedback, winner int)
}

// FixtureFleet is the model.Fleet of a test fixture written station by
// station: New builds each joined station, and Observe tells each what its
// role in the slot lets it hear. It loops when every station has a Looping
// method that reports true.
type FixtureFleet struct {
	New      func(id int, wake int64) FixtureStation
	stations []fixtureEntry
}

type fixtureEntry struct {
	id   int
	st   FixtureStation
	sent bool
}

func (f *FixtureFleet) Join(id int, wake int64, _ *rng.Source) {
	f.stations = append(f.stations, fixtureEntry{id: id, st: f.New(id, wake)})
}

func (f *FixtureFleet) JoinAt(i, id int, wake int64, _ *rng.Source) bool {
	e := fixtureEntry{id: id, st: f.New(id, wake)}
	e.sent = e.st.Transmits(wake)
	f.stations = slices.Insert(f.stations, i, e)
	return e.sent
}

func (f *FixtureFleet) Transmitters(t int64, dst []int) []int {
	for i := range f.stations {
		e := &f.stations[i]
		if e.sent = e.st.Transmits(t); e.sent {
			dst = append(dst, e.id)
		}
	}
	return dst
}

func (f *FixtureFleet) Next(from int64) int64 { return from }

func (f *FixtureFleet) Observe(t int64, d model.Delivery) {
	for _, e := range f.stations {
		fb, winner := d.For(e.sent, e.id)
		e.st.Hear(t, fb, winner)
	}
}

func (f *FixtureFleet) Looping() bool {
	for _, e := range f.stations {
		if l, ok := e.st.(interface{ Looping() bool }); !ok || !l.Looping() {
			return false
		}
	}
	return true
}
