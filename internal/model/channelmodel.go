package model

import (
	"fmt"
	"strconv"

	"nsmac/internal/rng"
)

// This file makes the channel itself pluggable. The paper studies one point
// in the channel design space — slotted, global clock, no collision
// detection — but the literature treats the channel as the variable:
// Bender & Kuszmaul vary feedback richness (full CD, sender-only CD,
// acknowledgement-only), and De Marco, Kowalski & Stachowiak add energy
// (transmissions plus listening slots) as a co-equal cost measure.
// ChannelModel captures that axis: a model owns feedback filtering (what
// each station hears, as a function of its role in the slot) and,
// optionally, reproducible slot perturbation (noise, jamming) driven by the
// run's derived channel RNG stream.

// ChannelStream is the derived-stream index of the channel's per-run
// perturbation RNG: a run seeded with Options.Seed perturbs slots from
// rng.Derive(Options.Seed, ChannelStream). It is exported so the engine's
// closed form (sim.ClosedForm) and tests can replay the channel's
// randomness exactly; like the sweep's pattern stream, the constant merely
// offsets the channel away from the per-station streams (which use the
// station IDs as indices).
const ChannelStream uint64 = 0xc11a44e1

// ChannelState is the per-run mutable state the channel keeps on behalf of
// its model: the derived random stream for noisy models and a generic usage
// counter for budgeted ones (jamming). Keeping the state here — the channel
// zeroes it at every Reset — lets model values stay stateless and therefore
// safe to share across concurrently running trials, which the sweep
// orchestrator relies on.
type ChannelState struct {
	// Src is the run's channel randomness, seeded from the run seed via
	// ChannelStream.
	Src rng.Source
	// Used counts whatever the model budgets (jam: slots jammed so far).
	Used int64
}

// Reset re-seeds the stream and zeroes the counters for a new run.
func (st *ChannelState) Reset(seed uint64) {
	st.Src.Reseed(seed)
	st.Used = 0
}

// ChannelModel is the pluggable channel regime. A model decides what each
// station hears in a slot; implementations must be stateless value types —
// per-run state lives in ChannelState (see SlotPerturber) — so one model
// value can serve concurrent runs.
//
// Built-in models, by wire name (the `name[:arg]` registry grammar):
//
//	none        paper default: collisions are heard as silence
//	cd          full collision detection: everyone hears collisions
//	sender_cd   only transmitting stations distinguish collision from silence
//	ack         only the successful sender hears success; all else is silence
//	noisy:<p>   none + each non-silent slot flips to silence w.p. p
//	jam:<q>     none + a jammer turns the first q would-be successes into
//	            collisions
type ChannelModel interface {
	// Name is the model's wire name in the registry entry grammar
	// `name[:arg]` (e.g. "none", "noisy:0.05"). Resolving the name through
	// the sweep channel registry must reconstruct an equivalent model.
	Name() string
	// Deliver maps the slot's effective outcome to what one station hears,
	// given the station's role: whether it transmitted in the slot, and
	// whether it was the successful transmitter.
	Deliver(truth Feedback, transmitted, won bool) Feedback
}

// Delivery is one slot's feedback, resolved once per role. What a station
// hears depends only on its role in the slot — listener, non-winning
// transmitter, winner — so a fleet asks the model three times per slot
// instead of once per station.
type Delivery struct {
	listen, sent, won Feedback
	winner            int
}

// Deliver resolves the delivery under m of a slot whose effective outcome
// is truth, won by winner (0 when the slot has no winner).
func Deliver(m ChannelModel, truth Feedback, winner int) Delivery {
	d := Delivery{
		listen: m.Deliver(truth, false, false),
		sent:   m.Deliver(truth, true, false),
		winner: winner,
	}
	d.won = d.sent
	if winner != 0 {
		d.won = m.Deliver(truth, true, true)
	}
	return d
}

// For returns what station id hears, given whether it transmitted in the
// slot, and the success ID it learns: the winner's when it hears Success,
// 0 otherwise — a station never learns the winner of a success it did not
// hear.
func (d Delivery) For(sent bool, id int) (Feedback, int) {
	fb := d.listen
	if sent {
		fb = d.sent
		if id == d.winner {
			fb = d.won
		}
	}
	if fb == Success {
		return fb, d.winner
	}
	return fb, 0
}

// SlotPerturber is the optional ChannelModel extension for models that alter
// slot outcomes (noise, jamming). The channel calls Perturb on each slot's
// physical outcome — what the transmissions alone would produce — before
// ruling; models without the interface cost nothing on the slot path.
type SlotPerturber interface {
	ChannelModel
	// Perturb maps the physical outcome to the effective one, drawing any
	// randomness from st.Src and tracking budgets in st.Used. It must be
	// deterministic given (truth, *st) and must draw from st.Src the same
	// number of times for a given truth regardless of st.Used, and let a
	// collision through, with st as it leaves it, exactly when it lets a
	// success through: the engine's injection hook spoils such a success.
	Perturb(truth Feedback, st *ChannelState) Feedback
}

// PerturbKind enumerates the slot-perturbation shapes the engine's closed
// form (sim.ClosedForm) knows how to replay. A perturbing model that does
// not fit one of these shapes simply does not implement ReplayablePerturber,
// and its trials are stepped slot by slot.
type PerturbKind int

const (
	// PerturbNone is the zero value: the channel does not perturb slots.
	PerturbNone PerturbKind = iota
	// PerturbErasure is the noisy:<p> shape — every non-silent slot flips to
	// silence with probability P, one Bernoulli draw per non-silent slot from
	// the run's derived channel stream, in slot order. Silent slots draw
	// nothing.
	PerturbErasure
	// PerturbJamPrefix is the jam:<q> shape — the first Q would-be successes
	// deterministically become collisions; no randomness is consumed.
	PerturbJamPrefix
)

// PerturbSpec is the declarative description of a perturbation the closed
// form can replay: the shape plus its parameter.
type PerturbSpec struct {
	Kind PerturbKind
	// P is the erasure probability (PerturbErasure).
	P float64
	// Q is the jam budget (PerturbJamPrefix).
	Q int64
}

// ReplayablePerturber is the opt-in capability interface of a perturbing
// channel model whose perturbation can be replayed without stepping it: it
// draws nothing on a silent slot, so the engine may skip silent slots (see
// channel.SkipsSilence), and the closed form may replay its PerturbSpec
// (see sim.ClosedForm). By implementing it a model asserts that its Perturb
// method is EXACTLY the pure function its PerturbSpec describes — same
// outcome mapping and, critically, the same RNG draw sequence:
//
//   - Perturb(Silence, st) returns Silence, draws nothing from st.Src and
//     leaves st untouched;
//   - PerturbErasure draws exactly one Bernoulli(P) per non-silent slot,
//     identically for success and collision slots (the spoiler-alignment
//     rule), and only for 0 < P < 1 — the degenerate probabilities draw
//     nothing;
//   - PerturbJamPrefix never draws.
//
// The closed form replays the spec against the same derived channel stream
// (rng.Derive(run seed, ChannelStream)) the engine hands its ChannelState,
// so a closed-form and a stepped trial consume identical draw sequences and
// produce byte-identical results. A SlotPerturber without this capability
// is always stepped slot by slot.
type ReplayablePerturber interface {
	SlotPerturber
	// PerturbSpec returns the declarative shape of Perturb.
	PerturbSpec() PerturbSpec
}

// maskCollision is the paper's listener rule, shared by every model without
// receiver-side collision detection.
func maskCollision(truth Feedback) Feedback {
	if truth == Collision {
		return Silence
	}
	return truth
}

type noneModel struct{}

func (noneModel) Name() string { return "none" }
func (noneModel) Deliver(truth Feedback, transmitted, won bool) Feedback {
	return maskCollision(truth)
}

type cdModel struct{}

func (cdModel) Name() string                                           { return "cd" }
func (cdModel) Deliver(truth Feedback, transmitted, won bool) Feedback { return truth }

type senderCDModel struct{}

func (senderCDModel) Name() string { return "sender_cd" }
func (senderCDModel) Deliver(truth Feedback, transmitted, won bool) Feedback {
	if transmitted {
		return truth
	}
	return maskCollision(truth)
}

type ackModel struct{}

func (ackModel) Name() string { return "ack" }
func (ackModel) Deliver(truth Feedback, transmitted, won bool) Feedback {
	if truth == Success && won {
		return Success
	}
	return Silence
}

type noisyModel struct{ p float64 }

func (m noisyModel) Name() string {
	return "noisy:" + strconv.FormatFloat(m.p, 'g', -1, 64)
}
func (m noisyModel) Deliver(truth Feedback, transmitted, won bool) Feedback {
	return maskCollision(truth)
}

// Perturb implements SlotPerturber: any non-silent slot is erased — flipped
// to silence — with probability p. Note Bernoulli draws from the stream only
// for 0 < p < 1, identically for success and collision slots, so a slot the
// spoiler turns from success into collision consumes the same single draw.
func (m noisyModel) Perturb(truth Feedback, st *ChannelState) Feedback {
	if truth != Silence && st.Src.Bernoulli(m.p) {
		return Silence
	}
	return truth
}

// PerturbSpec implements ReplayablePerturber: erasure with probability p.
func (m noisyModel) PerturbSpec() PerturbSpec {
	return PerturbSpec{Kind: PerturbErasure, P: m.p}
}

type jamModel struct{ q int64 }

func (m jamModel) Name() string { return "jam:" + strconv.FormatInt(m.q, 10) }
func (m jamModel) Deliver(truth Feedback, transmitted, won bool) Feedback {
	return maskCollision(truth)
}

// Perturb implements SlotPerturber: an adversarial jammer with a budget of q
// slots spends one on every would-be success until the budget is gone,
// turning the slot into a collision — the strongest placement a q-slot
// jammer can make, since non-success slots waste budget.
func (m jamModel) Perturb(truth Feedback, st *ChannelState) Feedback {
	if truth == Success && st.Used < m.q {
		st.Used++
		return Collision
	}
	return truth
}

// PerturbSpec implements ReplayablePerturber: a q-success jam prefix.
func (m jamModel) PerturbSpec() PerturbSpec {
	return PerturbSpec{Kind: PerturbJamPrefix, Q: m.q}
}

// None returns the paper's channel model: no collision detection, so a
// collision is indistinguishable from silence for every station.
func None() ChannelModel { return noneModel{} }

// CD returns the full collision-detection model: every station distinguishes
// collision from silence (the TreeCD baseline's requirement).
func CD() ChannelModel { return cdModel{} }

// SenderCD returns the sender-side collision-detection model: stations that
// transmitted in the slot learn whether they collided; pure listeners hear
// the paper's collision-as-silence channel.
func SenderCD() ChannelModel { return senderCDModel{} }

// Ack returns the acknowledgement-only model: the successful sender hears
// its success; every other station — on every outcome — hears silence.
func Ack() ChannelModel { return ackModel{} }

// Noisy returns the paper's channel with erasure noise: each non-silent slot
// flips to silence with probability p, drawn from the run's channel stream
// (rng.Derive(run seed, ChannelStream)), so runs stay reproducible. It
// panics unless 0 <= p <= 1.
func Noisy(p float64) ChannelModel {
	if !(p >= 0 && p <= 1) { // rejects NaN too
		panic(fmt.Sprintf("model: noise probability %v out of [0,1]", p))
	}
	return noisyModel{p: p}
}

// Jam returns the paper's channel with an adversarial jammer of budget q:
// the first q would-be successes become collisions. It panics on q < 0.
func Jam(q int64) ChannelModel {
	if q < 0 {
		panic(fmt.Sprintf("model: negative jam budget %d", q))
	}
	return jamModel{q: q}
}
