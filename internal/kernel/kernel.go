// Package kernel runs, in closed form, the trials whose outcome follows
// from the wake times alone.
//
// A station of an algorithm that declares model.Persistent transmits in
// every slot from its wake while it hears only silence. On the channels that
// deliver a collision as silence to every role (none, ack, noisy, jam) that
// is all it hears before the success that ends the trial. So slot t has as
// many transmitters as there are stations awake at t. With w₁ ≤ w₂ the two
// smallest wakes, a success can only fall in [w₁, w₂), where the first
// station transmits alone; from w₂ on every slot is a collision. Run
// derives the Result from that, perturbing the slots as sim.Engine's
// channel would: noisy:<p> draws one Bernoulli per slot, in slot order, and
// jam:<q> jams the first q solo slots.
//
// Every other pairing runs on sim.Engine: oblivious algorithms, which it
// steps sparsely where their schedules name their next attempt, and
// adaptive ones on cd and sender_cd, whose collisions reach the stations.
package kernel

import (
	"errors"
	"fmt"
	"math"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// Eligible reports whether Run can execute a pairing; false means it must
// run on the slot-by-slot engine.
func Eligible(algo model.Algorithm, opt sim.Options) bool {
	if opt.RecordTrace || !opt.Adaptive {
		// Run materializes no per-slot events, and only adaptive runs
		// build persistent stations.
		return false
	}
	ch := opt.ChannelModel()
	if _, ok := ch.(model.SlotPerturber); ok {
		// A perturbing channel rewrites slot outcomes from its own RNG
		// stream. Run replays the shapes declared through
		// model.KernelPerturber (erasure noise, jam prefixes) in exact draw
		// parity; anything else stays on the engine.
		if _, ok := ch.(model.KernelPerturber); !ok {
			return false
		}
	}
	// A persistent station keeps transmitting only while it hears silence,
	// which every collision is only when the channel masks it for every
	// role; on cd and sender_cd a collision moves the stations.
	_, ok := algo.(model.Persistent)
	return ok && collisionSilent(ch)
}

// collisionSilent reports whether the model delivers a collision as silence
// to every role — i.e. whether collisions are state-invisible to stations.
func collisionSilent(ch model.ChannelModel) bool {
	return ch.Deliver(model.Collision, false, false) == model.Silence &&
		ch.Deliver(model.Collision, true, false) == model.Silence
}

// Class resolves the schedule class a (algorithm, options) pairing would
// execute under, reporting ok == false when the pairing must run on the
// slot-by-slot engine (see Eligible). An eligible pairing always reports
// SeedSensitive: its outcome depends on the trial's pattern and channel
// draws, so nothing may be reused across trials.
func Class(algo model.Algorithm, opt sim.Options) (model.ScheduleClass, bool) {
	if !Eligible(algo, opt) {
		return model.ScheduleClass{}, false
	}
	return model.ScheduleClass{SeedSensitive: true}, true
}

// errIneligible is the error Run wraps for a pairing Eligible keeps on the
// engine.
var errIneligible = errors.New("not eligible for the closed-form kernel with these options")

// Run executes one trial of an eligible pairing and returns the Result
// sim.Engine returns for the same inputs. It validates them as the engine
// does, and refuses a pairing Eligible keeps on the engine.
func Run(algo model.Algorithm, p model.Params, w model.WakePattern, opt sim.Options) (model.Result, error) {
	if err := sim.ValidateRun(algo, p, w, opt); err != nil {
		return model.Result{}, err
	}
	if !Eligible(algo, opt) {
		return model.Result{}, fmt.Errorf("kernel: %s is %w", algo.Name(), errIneligible)
	}

	// The first station and the two smallest wakes; a tie at the first wake
	// leaves w2 == s and the solo window empty.
	first, s, w2 := 0, int64(math.MaxInt64), int64(math.MaxInt64)
	for i, wake := range w.Wakes {
		switch {
		case wake < s:
			first, s, w2 = w.IDs[i], wake, s
		case wake < w2:
			w2 = wake
		}
	}
	end := s + opt.Horizon
	solo := min(w2, end) // the first station transmits alone in [s, solo)

	// Every slot in [s, end) is non-silent. succ is the success slot (-1 for
	// none) and erased counts the slots before it that noise silenced.
	succ, erased := int64(-1), int64(0)
	var spec model.PerturbSpec
	if kp, ok := opt.ChannelModel().(model.KernelPerturber); ok {
		spec = kp.PerturbSpec()
	}
	switch spec.Kind {
	case model.PerturbJamPrefix:
		if spec.Q < solo-s {
			succ = s + spec.Q
		}
	case model.PerturbErasure:
		var src rng.Source
		src.Reseed(rng.Derive(opt.Seed, model.ChannelStream))
		for t := s; t < end; t++ {
			if src.Bernoulli(spec.P) {
				erased++
			} else if t < solo {
				succ = t
				break
			}
		}
	default:
		if solo > s {
			succ = s
		}
	}

	res := model.Result{SuccessSlot: -1, Rounds: -1}
	stop := end
	if succ >= 0 {
		stop = succ + 1
		res.Succeeded, res.Winner, res.SuccessSlot, res.Rounds = true, first, succ, succ-s
	}
	res.Slots = stop - s
	res.Silences = erased
	res.Collisions = res.Slots - erased
	if res.Succeeded {
		res.Collisions--
	}
	for _, wake := range w.Wakes {
		if wake < stop {
			res.Transmissions += stop - wake
		}
	}
	return res, nil
}
