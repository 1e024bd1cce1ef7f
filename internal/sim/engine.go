package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nsmac/internal/channel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// Engine is a reusable simulation engine. Reset prepares it for a trial
// (reusing the station table, the transmit buffers, the cohort and the
// channel from the previous trial) and Step/RunTo/Run advance it, so a trial
// on a warm engine costs only the per-station schedule closures the
// algorithm itself builds, and nothing for a model.Batched algorithm.
//
// An oblivious run steps one model.Cohort: the algorithm's closed-form next
// attempts (model.Sparse), its own cohort (model.Batched) or its Build
// closures, preferred in that order. An adaptive run steps its stations one
// by one and delivers each its feedback, unless Run finishes it in closed
// form (see ClosedForm); that trial builds no stations and leaves the
// channel unstepped.
//
// The zero value is not usable; construct with NewEngine. An engine is not
// safe for concurrent use — pool one per worker (internal/sweep does).
// Behaviour is identical to Run for the same inputs: the per-station RNG
// streams derive from (Options.Seed, station ID) exactly as before, so a
// reused engine reproduces a fresh one byte for byte.
type Engine struct {
	ch *channel.Channel

	adaptiveAlgo model.Adaptive
	useAdaptive  bool
	closedForm   bool         // Run may finish the trial in closed form (see ClosedForm)
	cohort       model.Cohort // an oblivious run's stations; nil on an adaptive run
	batched      model.Cohort // the last cohort a Batched algorithm returned, reused
	attempts     nextCohort
	closures     buildCohort
	p            model.Params
	opt          Options

	order        []model.WakeKey // the pattern's activation keys, reused across trials
	stations     []station       // wake-ordered pattern stations, then injected ones
	active       []*station      // activated stations, pointers into the table
	transmitters []int           // per-slot transmit buffer (IDs)
	room         int             // the pattern's stations plus RunHooked's spare: the most the table may hold

	s      int64 // first wake slot
	t      int64 // next slot to execute
	next   int   // next station (by wake order) not yet activated
	result model.Result
	done   bool
}

// NewEngine returns an engine ready for its first Reset.
func NewEngine() *Engine {
	return &Engine{ch: channel.New(nil, false)}
}

// Reset validates the inputs and prepares the engine for a new trial. The
// validation and error messages are exactly Run's: Run is a thin wrapper
// over a fresh engine.
func (e *Engine) Reset(algo model.Algorithm, p model.Params, w model.WakePattern, opt Options) error {
	if algo == nil {
		return errors.New("sim: nil algorithm")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := w.Validate(p.N); err != nil {
		return err
	}
	if opt.Horizon <= 0 {
		return fmt.Errorf("sim: horizon %d, want > 0", opt.Horizon)
	}
	if p.KnowsK() && w.K() > p.K {
		return fmt.Errorf("sim: pattern wakes %d stations but K=%d", w.K(), p.K)
	}
	if p.KnowsS() && w.FirstWake() != p.S {
		return fmt.Errorf("sim: pattern starts at %d but algorithm was told S=%d", w.FirstWake(), p.S)
	}

	e.p, e.opt = p, opt
	e.adaptiveAlgo, _ = algo.(model.Adaptive)
	e.useAdaptive = opt.Adaptive && e.adaptiveAlgo != nil
	e.closedForm = ClosedForm(algo, opt)
	// The channel's perturbation stream derives from the run seed on its own
	// stream index, independent of the per-station streams.
	e.ch.Reset(opt.ChannelModel(), opt.RecordTrace, rng.Derive(opt.Seed, model.ChannelStream))

	// Rebuild the station table in wake order (ties by ID) inside the reused
	// backing array, from the pattern's sorted activation keys.
	e.order = w.WakeOrder(e.order)
	k := len(e.order)
	e.stations = slices.Grow(e.stations[:0], k)[:k]
	for i, key := range e.order {
		e.stations[i] = station{id: key.ID, wake: key.Wake}
	}
	e.room = k

	e.cohort = nil
	if !e.useAdaptive {
		switch a := algo.(type) {
		case model.Sparse:
			e.attempts.reset(a, p, k)
			e.cohort = &e.attempts
		case model.Batched:
			e.batched = a.Cohort(p, e.batched)
			e.cohort = e.batched
		default:
			e.closures.reset(algo, p, k)
			e.cohort = &e.closures
		}
	}

	e.active = slices.Grow(e.active[:0], k)
	e.transmitters = slices.Grow(e.transmitters[:0], k)

	e.s = e.stations[0].wake
	e.t = e.s
	e.next = 0
	e.result = model.Result{SuccessSlot: -1, Rounds: -1}
	e.done = false
	return nil
}

// Channel exposes the engine's channel (for transcript inspection). The
// channel is recycled by the next Reset; callers that need the transcript
// must read it before then.
func (e *Engine) Channel() *channel.Channel { return e.ch }

// Result returns the run result accumulated so far — the counters (Slots
// included) are kept accurate after every Step — and is final once the
// engine reports done.
func (e *Engine) Result() model.Result { return e.result }

// Done reports whether the current trial has ended (success or horizon).
func (e *Engine) Done() bool { return e.done }

// Slot returns the next global slot the engine will execute.
func (e *Engine) Slot() int64 { return e.t }

// Step executes one slot. It returns true once the trial has ended — at the
// first solo transmission, or when the horizon is exhausted.
func (e *Engine) Step() bool { return e.step(e.t+1, nil) }

// RunTo steps until global slot until (exclusive) or until the trial ends,
// whichever comes first, and reports whether the trial has ended.
func (e *Engine) RunTo(until int64) bool {
	for !e.done && e.t < until {
		if e.step(until, nil) {
			break
		}
	}
	return e.done
}

// Run finishes the trial and returns the result. A trial that ClosedForm
// admits and that has not been stepped yet is finished in closed form, from
// the wake times alone, without stepping the channel; every other trial is
// stepped to completion as RunTo would.
func (e *Engine) Run() model.Result {
	if e.closedForm && !e.done && e.next == 0 {
		e.finishClosed()
		return e.result
	}
	return e.RunHooked(0, nil)
}

// A SuccessHook is called at every slot the channel rules a success, after
// noise or jamming. It may name a station to inject: one not yet in the run
// that, woken at that slot, transmits in it. The engine then wakes it there
// on its own stream and rules the slot a collision of it and the winner on
// the same channel draw, and the run goes on. With no injection (inject ==
// 0) the success ends the run unless more is true.
type SuccessHook func(slot int64, winner int) (inject int, more bool)

// RunHooked steps the trial to completion, calling hook (if non-nil) at
// every successful slot, and returns the result. spare is the most stations
// the hook injects. Before any station wakes, the station table grows to
// hold them, so an injection never moves a station whose schedule holds on
// to its stream; an injection past that room panics.
func (e *Engine) RunHooked(spare int, hook SuccessHook) model.Result {
	if e.next == 0 {
		e.stations = slices.Grow(e.stations, spare)
		e.room = len(e.stations) + spare
	}
	for !e.step(math.MaxInt64, hook) {
	}
	return e.result
}

// step executes the next slot; it returns true once the trial has ended. If
// the channel lets silent slots be skipped and the cohort names no attempt
// in that slot, it instead skips the whole silent run the slot starts, up
// to the cohort's next attempt, the next wake, the horizon or limit,
// whichever comes first (limit > e.t).
func (e *Engine) step(limit int64, hook SuccessHook) bool {
	if e.done {
		return true
	}
	t := e.t
	end := e.s + e.opt.Horizon
	if t >= end {
		// result.Slots is maintained per step and already equals Horizon.
		e.done = true
		return true
	}

	// Activate stations whose wake time has arrived.
	for e.next < len(e.order) && e.stations[e.next].wake <= t {
		e.activate(&e.stations[e.next])
		e.next++
	}

	e.transmitters = e.transmitters[:0]
	if e.useAdaptive {
		for _, st := range e.active {
			st.sent = st.adaptive.WillTransmit(t)
			if st.sent {
				e.transmitters = append(e.transmitters, st.id)
			}
		}
	} else {
		if next := e.cohort.Next(t); next > t && e.ch.SkipsSilence() {
			stop := min(next, end, limit)
			if e.next < len(e.order) {
				stop = min(stop, e.stations[e.next].wake)
			}
			e.skipSilent(stop - t)
			return false
		}
		e.transmitters = e.cohort.Transmitters(t, e.transmitters)
	}

	truth, winner := e.ch.Resolve(t, e.transmitters)
	more := false
	if truth == model.Success && hook != nil {
		var id int
		if id, more = hook(t, winner); id != 0 {
			e.inject(id, t)
			truth, winner = model.Collision, 0
		}
	}
	e.result.Transmissions += int64(len(e.transmitters))
	e.result.Listens += int64(len(e.active) - len(e.transmitters))
	switch truth {
	case model.Collision:
		e.result.Collisions++
	case model.Silence:
		e.result.Silences++
	}

	if e.useAdaptive {
		// One role table per slot (see roles): the model is consulted once
		// per role, not once per station.
		r := resolveRoles(e.ch.Model(), truth, winner)
		for _, st := range e.active {
			fb, obsWinner := r.forStation(st.sent, st.id)
			st.adaptive.Observe(t, fb, obsWinner)
		}
	}

	e.t = t + 1
	e.result.Slots = e.t - e.s
	if truth == model.Success && !more {
		e.result.Succeeded = true
		e.result.Winner = winner
		e.result.SuccessSlot = t
		e.result.Rounds = t - e.s
		e.done = true
		return true
	}
	return false
}

// activate wakes station st, reseeding its stream and building its
// schedule, and appends it to the active stations.
func (e *Engine) activate(st *station) {
	src := e.stream(st)
	if e.useAdaptive {
		st.adaptive = e.adaptiveAlgo.BuildAdaptive(e.p, st.id, st.wake, src)
	} else {
		e.cohort.Join(st.id, st.wake, src)
	}
	e.active = append(e.active, st)
}

// stream reseeds st's stream from the run seed and its ID, in place, and
// returns it.
func (e *Engine) stream(st *station) *rng.Source {
	st.src.Reseed(rng.Derive(e.opt.Seed, uint64(st.id)))
	return &st.src
}

// inject wakes station id at slot t, whose transmitters are collected, as a
// replay of the final pattern would. A replay activates stations by wake
// slot, then ID, so the station moves ahead of those woken at t with a
// larger ID, and so does its ID among the slot's transmitters.
func (e *Engine) inject(id int, t int64) {
	if id < 1 || id > e.p.N || len(e.stations) >= e.room ||
		slices.ContainsFunc(e.stations, func(st station) bool { return st.id == id }) {
		panic(fmt.Sprintf("sim: cannot inject station %d: out of range, already in the run or past the room RunHooked reserved", id))
	}
	e.stations = append(e.stations, station{id: id, wake: t})
	st := &e.stations[len(e.stations)-1]
	i := len(e.active)
	for i > 0 && e.active[i-1].wake == t && e.active[i-1].id > id {
		i--
	}
	src := e.stream(st)
	if e.useAdaptive {
		st.adaptive = e.adaptiveAlgo.BuildAdaptive(e.p, id, t, src)
		st.sent = st.adaptive.WillTransmit(t)
	} else {
		// The cohort takes the station where the replay puts it.
		st.sent = e.cohort.JoinAt(i, id, t, src)
	}
	if !st.sent {
		panic(fmt.Sprintf("sim: injected station %d does not transmit at its wake slot %d", id, t))
	}

	j := len(e.transmitters)
	for j > 0 && slices.ContainsFunc(e.active[i:], func(a *station) bool { return a.id == e.transmitters[j-1] }) {
		j--
	}
	e.transmitters = slices.Insert(e.transmitters, j, id)
	e.active = slices.Insert(e.active, i, st)
	e.ch.Spoil(t, e.transmitters)
}

// skipSilent accounts the next gap slots, in which no active station
// transmits and none wakes, in closed form: each is a silence, and every
// active station spends it listening.
func (e *Engine) skipSilent(gap int64) {
	e.ch.SkipSilent(gap)
	e.result.Silences += gap
	e.result.Listens += gap * int64(len(e.active))
	e.t += gap
	e.result.Slots = e.t - e.s
}
