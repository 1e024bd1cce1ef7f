// Package kernel executes adaptive wake-up trials word-wide.
//
// An adaptive algorithm that declares model.EpochOblivious renders each
// station's silence projection: the schedule it follows from its wake while
// every slot it hears is silent. On the channels that deliver a collision as
// silence to every role (none, ack, noisy, jam) that is the whole trial, since
// the only other feedback is the success that ends it. The kernel builds each
// station at its wake, packs its renders into 64-slot words (bit t =
// "transmits in slot t") and resolves each word in one pass: finding the
// first solo-transmission slot is an AND/OR scan over the station words, and
// the Result counters (transmissions, listens, collisions, silences; energy
// derives from the first two) are popcounts. On cd and sender_cd collisions
// reach the stations, and those cells run on sim.Engine.
//
// Perturbing channels (noisy:<p>, jam:<q>) execute word-wide too: the
// channel advertises its perturbation shape through model.KernelPerturber
// and the kernel overlays it on the per-word any/solo masks in exact
// RNG-draw-sequence parity with the engine — noisy walks the non-silent
// slots of each word in slot order drawing one Bernoulli each from the
// derived channel stream (success and collision slots consume identically,
// the spoiler-alignment rule), jam converts the first q solo slots to
// collisions without drawing. Silent slots never draw, so the word scan
// skips them wholesale.
//
// Oblivious algorithms run on sim.Engine, which jumps over silent slots for
// the schedules that name their next attempt (model.Sparse).
//
// The kernel is a drop-in behavioural twin of sim.Engine for its eligible
// inputs: identical validation, identical Result counters at every partial
// horizon, identical Done/Slot semantics. internal/sweep routes eligible
// cells here automatically and keeps the engine for everything else.
package kernel

import (
	"errors"
	"fmt"
	"math/bits"

	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// Kernel is a reusable word-wide trial executor. Like sim.Engine it is
// single-trial, Reset-per-trial, and not safe for concurrent use — keep one
// per worker. Only buffer capacity carries over between trials.
type Kernel struct {
	order  []model.WakeKey // activation keys, reused across trials
	epochs []epochRef      // awake stations in wake order, rebuilt per trial
	wbuf   []uint64        // per-station words of the word being stepped
	next   int             // index of the first station with wake > t

	// Channel overlay state: the perturbation shape advertised by the cell's
	// channel model (Kind == PerturbNone on inert channels) and the run's
	// derived channel stream, consumed in exact engine draw order.
	perturb model.PerturbSpec
	chSrc   rng.Source
	jamUsed int64 // solo slots jammed so far (PerturbJamPrefix budget)

	// Trial inputs retained for lazy station builds: like the engine, which
	// only builds a station when its wake slot arrives, the kernel defers
	// BuildEpoch to the first word a station is awake in — a trial that
	// succeeds early never pays for still-sleeping stations.
	algo model.EpochOblivious
	p    model.Params
	seed uint64

	s, t, end int64
	result    model.Result
	done      bool
}

// New returns a kernel ready for its first Reset.
func New() *Kernel { return &Kernel{} }

// Eligible reports whether the kernel can execute a pairing; false means it
// must run on the slot-by-slot engine.
func Eligible(algo model.Algorithm, opt sim.Options) bool {
	if opt.RecordTrace || !opt.Adaptive {
		// The kernel never materializes per-slot events, and only adaptive
		// runs of epoch algorithms reach it.
		return false
	}
	ch := opt.ChannelModel()
	if _, ok := ch.(model.SlotPerturber); ok {
		// A perturbing channel rewrites slot outcomes from its own RNG
		// stream. The kernel can overlay the shapes declared through
		// model.KernelPerturber (erasure noise, jam prefixes) on its word
		// scan in exact draw parity; anything else stays on the engine.
		if _, ok := ch.(model.KernelPerturber); !ok {
			return false
		}
	}
	// The epoch scan never delivers feedback, which is only sound when a
	// collision reaches every role as silence. Where it does not (cd,
	// sender_cd), each collision would re-render stations, and the engine
	// measured faster.
	_, ok := algo.(model.EpochOblivious)
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
// slot-by-slot engine: trace recording, a perturbing channel that does not
// advertise a kernel-executable shape, any oblivious run, an adaptive run of
// an algorithm without the model.EpochOblivious capability, or one on a
// channel that delivers collisions to some role (cd, sender_cd). An eligible
// pairing always reports SeedSensitive, since its renders come from stations
// built afresh every trial.
func Class(algo model.Algorithm, opt sim.Options) (model.ScheduleClass, bool) {
	if !Eligible(algo, opt) {
		return model.ScheduleClass{}, false
	}
	return model.ScheduleClass{SeedSensitive: true}, true
}

// Reset validates the inputs — identically to sim.Engine.Reset — and
// prepares the kernel for a new trial.
func (k *Kernel) Reset(algo model.Algorithm, p model.Params, w model.WakePattern, opt sim.Options) error {
	if err := sim.ValidateRun(algo, p, w, opt); err != nil {
		return err
	}
	if !Eligible(algo, opt) {
		return fmt.Errorf("kernel: %s is %w", algo.Name(), errIneligible)
	}
	k.algo, k.p, k.seed = algo.(model.EpochOblivious), p, opt.Seed

	// Channel overlay: resolve the cell's model to its declared perturbation
	// shape (PerturbNone on inert channels) and position the derived channel
	// stream exactly where the engine's ChannelState starts.
	k.perturb = model.PerturbSpec{}
	if kp, ok := opt.ChannelModel().(model.KernelPerturber); ok {
		k.perturb = kp.PerturbSpec()
		k.chSrc.Reseed(rng.Derive(opt.Seed, model.ChannelStream))
	}
	k.jamUsed = 0

	// Station table in wake order (ties by ID), mirroring the engine. One
	// ref per station that wakes inside the horizon; stations are built
	// lazily in stepEpoch (st == nil until their word arrives), mirroring
	// the engine's build-at-activation economy.
	k.order = w.WakeOrder(k.order)
	k.s = k.order[0].Wake
	k.t = k.s
	k.end = k.s + opt.Horizon
	k.next = 0
	k.result = model.Result{SuccessSlot: -1, Rounds: -1}
	k.done = false

	k.epochs = k.epochs[:0]
	for _, key := range k.order {
		if key.Wake >= k.end {
			// Never activated by the engine either.
			continue
		}
		k.epochs = append(k.epochs, epochRef{id: key.ID, wake: key.Wake})
	}
	if cap(k.wbuf) < len(k.epochs) {
		k.wbuf = make([]uint64, len(k.epochs))
	}
	k.wbuf = k.wbuf[:len(k.epochs)]
	return nil
}

// errIneligible is the error Reset wraps for a pairing Eligible keeps on the
// engine.
var errIneligible = errors.New("not eligible for the bitset kernel with these options")

// awakeMask returns the transmit-window mask of one word for a station:
// bits for slots >= wake within [wordBase, wordBase+64).
func awakeMask(wake, wordBase int64) uint64 {
	if wake <= wordBase {
		return ^uint64(0)
	}
	off := wake - wordBase
	if off >= 64 {
		return 0
	}
	return ^uint64(0) << uint(off)
}

// overlayWord applies the channel's perturbation to one word's physical
// outcome masks (any/solo, windowed to the executed slots) and returns the
// effective transformation: jammed is the solo bits converted to collisions,
// erased is the non-silent bits flipped to silence, and succBit is the
// word-local bit of the first SURVIVING success (-1 if none). It mutates the
// kernel's overlay state (channel stream draws, jam budget) exactly as the
// engine's per-slot Perturb calls would over the same slots in slot order —
// the draw-parity contract of model.KernelPerturber.
func (k *Kernel) overlayWord(any, solo uint64) (jammed, erased uint64, succBit int) {
	switch k.perturb.Kind {
	case model.PerturbJamPrefix:
		// Deterministic: the first q physical successes collide. Jam the
		// lowest min(remaining, popcount) solo bits; a solo bit past the
		// budget is the success and truncates the word there.
		if solo == 0 {
			return 0, 0, -1
		}
		r := k.perturb.Q - k.jamUsed
		if cnt := int64(bits.OnesCount64(solo)); cnt <= r {
			k.jamUsed += cnt
			return solo, 0, -1
		}
		rest := solo
		for i := int64(0); i < r; i++ {
			rest &= rest - 1
		}
		k.jamUsed += r
		// Jammed bits (the lowest r) all precede the success bit, so they
		// stay inside the truncated slot window.
		return solo &^ rest, 0, bits.TrailingZeros64(rest)
	case model.PerturbErasure:
		p := k.perturb.P
		// Degenerate probabilities never draw (rng.Source.Bernoulli's own
		// rule, which the engine inherits): p <= 0 is the inert channel,
		// p >= 1 erases every non-silent slot and can never succeed.
		if p <= 0 {
			break
		}
		if p >= 1 {
			return 0, any, -1
		}
		// One Bernoulli per non-silent slot, in slot order, stopping at the
		// first surviving success — after it the engine executes no slots,
		// so later bits of this word must not draw.
		rem := any
		for rem != 0 {
			b := bits.TrailingZeros64(rem)
			rem &= rem - 1
			if k.chSrc.Bernoulli(p) {
				erased |= 1 << uint(b)
			} else if solo&(1<<uint(b)) != 0 {
				return 0, erased, b
			}
		}
		return 0, erased, -1
	}
	if solo != 0 {
		return 0, 0, bits.TrailingZeros64(solo)
	}
	return 0, 0, -1
}

// RunTo steps until global slot until (exclusive) or until the trial ends,
// and reports whether the trial has ended — the engine's RunTo contract,
// including its edge semantics: the horizon only flips done when a step
// past it is actually attempted. It steps word by word, clipped at the wake
// of any station that would have to be built mid-word: a trial that ends
// before a wake never pays for that station's construction.
func (k *Kernel) RunTo(until int64) bool {
	limit := until
	if limit > k.end {
		limit = k.end
	}
	for !k.done && k.t < limit {
		hi := (k.t &^ 63) + 64
		if hi > limit {
			hi = limit
		}
		for k.next < len(k.epochs) && k.epochs[k.next].wake <= k.t {
			k.next++
		}
		for j := k.next; j < len(k.epochs) && k.epochs[j].wake < hi; j++ {
			if k.epochs[j].st == nil {
				hi = k.epochs[j].wake
				break
			}
		}
		k.stepEpoch(k.t, hi)
	}
	if !k.done && k.t >= k.end && until > k.end {
		k.done = true
	}
	return k.done
}

// Step executes one slot (the engine's Step contract).
func (k *Kernel) Step() bool { return k.RunTo(k.t + 1) }

// Run steps the trial to completion and returns the result.
func (k *Kernel) Run() model.Result {
	k.RunTo(k.end + 1)
	return k.result
}

// Result returns the counters accumulated so far; final once Done.
func (k *Kernel) Result() model.Result { return k.result }

// Done reports whether the current trial has ended.
func (k *Kernel) Done() bool { return k.done }

// Slot returns the next global slot the kernel will execute.
func (k *Kernel) Slot() int64 { return k.t }
