package sim

import (
	"math"

	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// ClosedForm reports whether Engine.Run finishes a trial of algo under opt
// in closed form: an adaptive run of a model.Persistent algorithm, on a
// channel that delivers a collision as silence to every role and that is
// inert or a model.ReplayablePerturber, with no transcript recorded.
//
// A persistent station transmits in every slot from its wake while it hears
// only silence, and on such a channel that is all it hears before the
// success that ends the trial. So slot t has as many transmitters as there
// are stations awake at t. With w₁ ≤ w₂ the two smallest wakes, a success
// can only fall in [w₁, w₂), where the first station transmits alone; from
// w₂ on every slot is a collision.
func ClosedForm(algo model.Algorithm, opt Options) bool {
	if opt.RecordTrace || !opt.Adaptive {
		return false
	}
	if _, ok := algo.(model.Persistent); !ok {
		return false
	}
	ch := opt.ChannelModel()
	if _, ok := ch.(model.SlotPerturber); ok {
		// The closed form replays only the perturbations a
		// model.ReplayablePerturber declares, in exact draw parity.
		if _, ok := ch.(model.ReplayablePerturber); !ok {
			return false
		}
	}
	return ch.Deliver(model.Collision, false, false) == model.Silence &&
		ch.Deliver(model.Collision, true, false) == model.Silence
}

// finishClosed ends an unstepped trial that ClosedForm admits in one pass
// over the wake order, perturbing the slots as the channel would: noisy:<p>
// draws one Bernoulli per slot, in slot order, from the channel's stream,
// and jam:<q> jams the first q solo slots. The channel itself is not
// stepped.
func (e *Engine) finishClosed() {
	// The first station and the two smallest wakes; a tie at the first wake
	// leaves w2 == s and the solo window empty.
	s, first, w2 := e.s, e.order[0].ID, int64(math.MaxInt64)
	if len(e.order) > 1 {
		w2 = e.order[1].Wake
	}
	end := s + e.opt.Horizon
	solo := min(w2, end) // the first station transmits alone in [s, solo)

	// Every slot in [s, end) is non-silent. succ is the success slot (-1 for
	// none) and erased counts the slots before it that noise silenced.
	succ, erased := int64(-1), int64(0)
	var spec model.PerturbSpec
	if rp, ok := e.opt.ChannelModel().(model.ReplayablePerturber); ok {
		spec = rp.PerturbSpec()
	}
	switch spec.Kind {
	case model.PerturbJamPrefix:
		if spec.Q < solo-s {
			succ = s + spec.Q
		}
	case model.PerturbErasure:
		var src rng.Source
		src.Reseed(rng.Derive(e.opt.Seed, model.ChannelStream))
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

	r := &e.result
	stop := end
	if succ >= 0 {
		stop = succ + 1
		r.Succeeded, r.Winner, r.SuccessSlot, r.Rounds = true, first, succ, succ-s
	}
	r.Slots = stop - s
	r.Silences = erased
	r.Collisions = r.Slots - erased
	if r.Succeeded {
		r.Collisions--
	}
	for _, key := range e.order {
		if key.Wake >= stop {
			break
		}
		r.Transmissions += stop - key.Wake
	}
	e.t, e.done = stop, true
}
