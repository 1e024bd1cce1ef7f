// Package sim drives contention-resolution algorithms over the channel: it
// wakes stations according to an adversarial pattern, evaluates their
// transmission schedules slot by slot, and stops at the first successful
// (solo) transmission — the wake-up problem's termination condition.
//
// The engine touches only awake stations, so a slot costs O(active) work
// regardless of n, and every run is reproducible from (algorithm, params,
// pattern, seed). Every run steps one model.Cohort, which answers for all
// the joined stations at once: an adaptive run its algorithm's model.Fleet,
// which also hears each slot's model.Delivery, and every other run the
// algorithm's own cohort if it implements model.Batched, or else an adapter
// over Build's closures. When the cohort names a next attempt past the
// current slot and the channel lets silence be skipped (no transcript is
// recorded, and the channel is inert or a model.ReplayablePerturber), the
// engine jumps over the silent slots up to that attempt, the next wake or
// the horizon, accounting them (slots, silences, listens) in closed form.
// Every cohort produces the same results and channel counters as Build's
// closures stepped slot by slot.
//
// Engine.Run alone finishes the trials that ClosedForm admits — adaptive
// runs of a model.Persistent algorithm on a channel that masks collisions —
// in closed form, from the wake times alone, without stepping the channel.
// Run and RunHooked also end an adaptive trial on cd or sender_cd early
// once it is absorbed: the fleet loops (model.Fleet.Looping) after a slot
// that collided all its stations, so every slot left is such a collision,
// and they account those slots at once. Step and RunTo always step slot by
// slot.
//
// Engine.RunHooked calls a SuccessHook at every slot the channel rules a
// success: Engine.RunAll's hook runs on past it, and the white-box spoiler
// adversary's injects a station that collides with the winner.
//
// Engine is the reusable core: Reset recycles the station table, transmit
// buffers and channel between trials, so a warm engine runs a trial with
// near-zero allocations of its own — internal/sweep pools one engine per
// worker for exactly this reason. Run is a thin wrapper over a fresh engine
// for one-shot callers.
package sim

import (
	"fmt"

	"nsmac/internal/channel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// Options configures one simulation run.
type Options struct {
	// Horizon caps how many slots past the first wake-up the engine steps
	// before declaring failure. Required (> 0): every caller knows the
	// theoretical bound for its algorithm and passes a guarded multiple of
	// it, so silent non-termination is impossible.
	Horizon int64
	// Channel selects the channel model (feedback regime plus optional
	// noise/jam perturbation). Nil selects the paper's model.None.
	Channel model.ChannelModel
	// Adaptive steps the algorithm's fleet when it is model.Adaptive,
	// delivering every slot's feedback to its stations.
	Adaptive bool
	// RecordTrace keeps a bounded channel transcript in the Channel.
	RecordTrace bool
	// Seed keys randomized algorithms' per-station streams. Deterministic
	// algorithms ignore it.
	Seed uint64
}

// ChannelModel returns the run's channel model: Channel, or model.None when
// Channel is nil. The engine and ClosedForm both resolve through it, so the
// stepped and the closed-form trial agree on the default.
func (o Options) ChannelModel() model.ChannelModel {
	if o.Channel == nil {
		return model.None()
	}
	return o.Channel
}

// station is the engine's per-station state. There is deliberately no
// "retired" flag: in this model a station that stops transmitting (KG
// retirement after hearing its own success, TreeCD subtree withdrawal) is
// protocol behaviour, expressed by its fleet leaving it out of
// Transmitters — a retired station still listens, and its listening slots
// still cost energy, exactly as the paper's energy measure prescribes. An
// engine-level retirement switch would silently drop those listens from the
// counters.
type station struct {
	id   int
	wake int64
	src  rng.Source // the station's stream, reseeded in place at activation
}

// Run simulates until the first solo transmission or until the horizon is
// exhausted. It returns the run result plus the channel (for transcript
// inspection); the error reports invalid inputs only — a timed-out run is a
// Result with Succeeded == false. Run constructs a fresh Engine per call;
// batch callers should pool an Engine and Reset it between trials instead.
func Run(algo model.Algorithm, p model.Params, w model.WakePattern, opt Options) (model.Result, *channel.Channel, error) {
	e := NewEngine()
	if err := e.Reset(algo, p, w, opt); err != nil {
		return model.Result{}, nil, err
	}
	res := e.Run()
	return res, e.Channel(), nil
}

// AllResult reports a conflict-resolution run (every awake station must
// transmit alone; the Komlós–Greenberg objective).
type AllResult struct {
	// Succeeded is true if every station in the pattern transmitted alone
	// before the horizon.
	Succeeded bool
	// Slots is the number of slots the engine stepped from the first wake:
	// up to and including the last station's first solo transmission on
	// success, or every slot stepped before the horizon expired on failure
	// (matching Result.Slots semantics).
	Slots int64
	// FirstSuccess maps station ID to the slot of its first solo
	// transmission.
	FirstSuccess map[int]int64
}

// RunAll resets the engine and simulates in adaptive mode until every
// awake station has transmitted alone at least once (conflict resolution /
// k-broadcast). The algorithm must implement model.Adaptive: retiring after
// one's own success is feedback-driven behaviour.
func (e *Engine) RunAll(algo model.Algorithm, p model.Params, w model.WakePattern, opt Options) (AllResult, error) {
	if _, ok := algo.(model.Adaptive); !ok {
		return AllResult{}, fmt.Errorf("sim: %s is not adaptive; RunAll requires feedback-driven stations", algo.Name())
	}
	opt.Adaptive = true

	if err := e.Reset(algo, p, w, opt); err != nil {
		return AllResult{}, err
	}

	all := AllResult{FirstSuccess: make(map[int]int64, w.K())}
	remaining := w.K()
	res := e.RunHooked(0, func(slot int64, winner int) (int, bool) {
		if _, seen := all.FirstSuccess[winner]; !seen {
			all.FirstSuccess[winner] = slot
			remaining--
		}
		return 0, remaining > 0
	})
	all.Succeeded = remaining == 0
	// Result.Slots semantics in both arms: the slots the engine actually
	// stepped from the first wake. On success that is the last needed
	// success slot minus s plus one; on a timed-out run it is the stepped
	// count itself, not a restatement of the configured horizon.
	all.Slots = res.Slots
	return all, nil
}
