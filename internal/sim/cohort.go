package sim

import (
	"slices"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// nextCohort is the model.Cohort of a model.Sparse algorithm: each station's
// NextFunc and next attempt, and the earliest of those attempts, so that
// the engine can jump to it over the silent slots before it.
type nextCohort struct {
	algo     model.Sparse
	p        model.Params
	stations []nextStation
	first    int64 // the earliest next attempt of any station
}

type nextStation struct {
	id   int
	next model.NextFunc
	at   int64 // the station's next attempt
}

// reset empties the cohort for a run of algo with params p and k stations.
func (c *nextCohort) reset(algo model.Sparse, p model.Params, k int) {
	c.algo, c.p = algo, p
	c.stations = slices.Grow(c.stations[:0], k)
	c.first = model.Never
}

// Join implements model.Cohort.
func (c *nextCohort) Join(id int, wake int64, src *rng.Source) {
	next := c.algo.BuildNext(c.p, id, wake, src)
	at := next(wake)
	c.stations = append(c.stations, nextStation{id, next, at})
	c.first = min(c.first, at)
}

// JoinAt implements model.Cohort: the station's attempt at its wake slot,
// if it makes one, is spent in that slot.
func (c *nextCohort) JoinAt(i, id int, wake int64, src *rng.Source) bool {
	next := c.algo.BuildNext(c.p, id, wake, src)
	sent := next(wake) == wake
	at := next(wake + 1)
	c.stations = slices.Insert(c.stations, i, nextStation{id, next, at})
	c.first = min(c.first, at)
	return sent
}

// Transmitters implements model.Cohort: it gathers the stations whose next
// attempt is slot t and moves each to its following attempt.
func (c *nextCohort) Transmitters(t int64, dst []int) []int {
	first := model.Never
	for i := range c.stations {
		st := &c.stations[i]
		at := st.at
		if at == t {
			dst = append(dst, st.id)
			at = st.next(t + 1)
			st.at = at
		}
		first = min(first, at)
	}
	c.first = first
	return dst
}

// Next implements model.Cohort.
func (c *nextCohort) Next(from int64) int64 { return max(c.first, from) }
