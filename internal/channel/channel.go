// Package channel models the multiple-access channel itself: slotted time,
// at most one successful transmitter per slot, and the feedback regimes the
// literature distinguishes.
//
// The channel is deliberately dumb — it owns no station logic. Each slot the
// simulator hands it the set of transmitting stations; the channel rules on
// the outcome (silence / success / collision), applies the configured
// model.ChannelModel — which may perturb the slot (erasure noise, jamming)
// from the run's derived channel RNG stream — records statistics and an
// optional bounded transcript, and answers, per station, what that station
// hears under the model's feedback regime (the paper's model maps collisions
// to silence for everyone; richer and poorer regimes — full CD, sender-only
// CD, acknowledgement-only — filter by the station's role in the slot).
package channel

import (
	"fmt"

	"nsmac/internal/model"
)

// Event is one slot of the channel transcript.
type Event struct {
	// Slot is the global slot index.
	Slot int64
	// Transmitters are the stations that transmitted (sorted as handed in).
	Transmitters []int
	// Truth is the effective outcome of the slot (after any model
	// perturbation — a jammed success records as a collision).
	Truth model.Feedback
	// Winner is the successful transmitter (0 unless Truth == Success).
	Winner int
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Truth {
	case model.Success:
		return fmt.Sprintf("slot %d: station %d transmits alone", e.Slot, e.Winner)
	case model.Collision:
		return fmt.Sprintf("slot %d: collision %v", e.Slot, e.Transmitters)
	default:
		return fmt.Sprintf("slot %d: silence", e.Slot)
	}
}

// maxTrace bounds transcript memory; long runs keep only the first events
// (enough for rendering and debugging, which only ever look at prefixes).
const maxTrace = 1 << 16

// Channel arbitrates slots and accumulates statistics.
type Channel struct {
	model     model.ChannelModel
	perturb   model.SlotPerturber // cached capability; nil for inert models
	state     model.ChannelState
	record    bool
	trace     []Event
	truncated bool // recording hit maxTrace; the transcript is a prefix

	// silentInert: resolving a silent slot neither draws nor changes the
	// outcome — the model is inert, or a model.ReplayablePerturber.
	silentInert bool

	slots      int64
	successes  int64
	collisions int64
	silences   int64
}

// New returns a channel with the given model (nil selects the paper default,
// model.None). If record is true a bounded transcript of events is kept.
// Perturbing models (noisy, jam) draw from the zero seed until Reset hands
// the channel its run's derived stream.
func New(m model.ChannelModel, record bool) *Channel {
	c := &Channel{}
	c.Reset(m, record, 0)
	return c
}

// Reset reconfigures the channel for a new run, recycling the transcript
// buffer and zeroing the statistics instead of reallocating. It is the
// engine-pool hook: a pooled simulation engine calls Reset between trials so
// a trial costs no channel allocations. A nil model selects model.None;
// seed keys the model's perturbation stream (the engine derives it from the
// run seed via model.ChannelStream).
func (c *Channel) Reset(m model.ChannelModel, record bool, seed uint64) {
	if m == nil {
		m = model.None()
	}
	c.model = m
	c.perturb, _ = m.(model.SlotPerturber)
	_, rp := m.(model.ReplayablePerturber)
	c.silentInert = c.perturb == nil || rp
	c.state.Reset(seed)
	c.record = record
	c.trace = c.trace[:0]
	c.truncated = false
	c.slots, c.successes, c.collisions, c.silences = 0, 0, 0, 0
}

// Model returns the configured channel model.
func (c *Channel) Model() model.ChannelModel { return c.model }

// Resolve rules on one slot given the transmitting stations. It returns the
// slot's effective outcome — the physical outcome of the transmissions, run
// through the model's perturbation (noise may erase it, jamming may collide
// it) — and the winner ID (0 unless success). Use Deliver to translate the
// outcome into what a particular station hears.
func (c *Channel) Resolve(slot int64, transmitters []int) (model.Feedback, int) {
	c.slots++
	var truth model.Feedback
	winner := 0
	switch len(transmitters) {
	case 0:
		truth = model.Silence
	case 1:
		truth = model.Success
		winner = transmitters[0]
	default:
		truth = model.Collision
	}
	if c.perturb != nil {
		truth = c.perturb.Perturb(truth, &c.state)
		if truth != model.Success {
			winner = 0
		}
	}
	switch truth {
	case model.Silence:
		c.silences++
	case model.Success:
		c.successes++
	default:
		c.collisions++
	}
	if c.record {
		if len(c.trace) < maxTrace {
			ts := append([]int(nil), transmitters...)
			c.trace = append(c.trace, Event{Slot: slot, Transmitters: ts, Truth: truth, Winner: winner})
		} else {
			c.truncated = true
		}
	}
	return truth, winner
}

// Spoil turns the last resolved slot, a success, into a collision of
// transmitters in the counters and the transcript: the engine's injection
// hook adds a transmitter after the ruling. It makes no second draw, which
// the model.SlotPerturber contract makes exact.
func (c *Channel) Spoil(slot int64, transmitters []int) {
	c.successes--
	c.collisions++
	if n := len(c.trace); c.record && n > 0 && c.trace[n-1].Slot == slot {
		c.trace[n-1] = Event{Slot: slot, Transmitters: append([]int(nil), transmitters...), Truth: model.Collision}
	}
}

// SkipsSilence reports whether SkipSilent may stand in for resolving
// silent slots one by one: the model perturbs nothing, or is a
// model.ReplayablePerturber, whose Perturb(Silence) returns Silence and draws
// nothing; and no transcript is being recorded.
func (c *Channel) SkipsSilence() bool { return c.silentInert && !c.record }

// SkipSilent accounts n slots in which nobody transmits in closed form,
// exactly as n calls of Resolve with no transmitters would count them. It
// panics unless SkipsSilence.
func (c *Channel) SkipSilent(n int64) {
	if !c.SkipsSilence() {
		panic("channel: SkipSilent on a channel that must resolve every slot")
	}
	c.slots += n
	c.silences += n
}

// Deliver maps a slot's effective outcome to the feedback heard by one
// station under this channel's model, given the station's role in the slot:
// whether it transmitted, and whether it was the successful transmitter.
func (c *Channel) Deliver(truth model.Feedback, transmitted, won bool) model.Feedback {
	return c.model.Deliver(truth, transmitted, won)
}

// Trace returns the recorded transcript (empty unless recording was
// enabled; nil if recording was never enabled on this channel).
func (c *Channel) Trace() []Event { return c.trace }

// Truncated reports whether recording hit the transcript bound: the trace is
// then the run's first maxTrace slots, not the whole run. Renderers and
// verifiers must consult this before treating the transcript as complete.
func (c *Channel) Truncated() bool { return c.truncated }

// TraceCap returns the transcript bound (the maximum events Trace can hold).
func TraceCap() int { return maxTrace }

// Slots returns the number of resolved slots.
func (c *Channel) Slots() int64 { return c.slots }

// Successes returns the number of successful slots.
func (c *Channel) Successes() int64 { return c.successes }

// Collisions returns the number of collided slots.
func (c *Channel) Collisions() int64 { return c.collisions }

// Silences returns the number of silent slots.
func (c *Channel) Silences() int64 { return c.silences }
