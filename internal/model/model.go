// Package model defines the vocabulary shared by the channel simulator, the
// contention-resolution algorithms and the experiment harness: parameters,
// wake patterns, transmit schedules, feedback, and results.
//
// The model follows the paper exactly: n stations with unique IDs in [1, n]
// share one slotted channel and a global clock; up to k of them wake up
// spontaneously at adversarially chosen slots; a slot is successful iff
// exactly one awake station transmits in it; without collision detection a
// collision is indistinguishable from silence.
package model

import (
	"fmt"
	"slices"

	"nsmac/internal/rng"
)

// Feedback is what a listening station hears in a slot.
type Feedback uint8

const (
	// Silence: no station transmitted. On the paper's channel (model.None)
	// this is also what a collision sounds like.
	Silence Feedback = iota
	// Success: exactly one station transmitted; all stations receive the
	// message (the successful transmitter included, per the paper).
	Success
	// Collision: two or more stations transmitted. Only distinguishable
	// from Silence when the channel is configured with collision detection.
	Collision
)

// String implements fmt.Stringer.
func (f Feedback) String() string {
	switch f {
	case Silence:
		return "silence"
	case Success:
		return "success"
	case Collision:
		return "collision"
	default:
		return fmt.Sprintf("feedback(%d)", uint8(f))
	}
}

// Params carries an algorithm's knowledge of the system, mirroring the
// paper's three scenarios. N (and the station's own ID) is always known.
// K and S are knowledge switches: K > 0 means the bound k is known
// (Scenario B); S >= 0 means the first wake-up time s is known (Scenario A).
// Scenario C algorithms receive K == 0 and S == -1.
type Params struct {
	// N is the size of the ID universe [1, N]; always known.
	N int
	// K is the known upper bound on awake stations, or 0 if unknown.
	K int
	// S is the known first wake-up slot, or -1 if unknown.
	S int64
	// Seed keys every randomized artifact the algorithm builds (selective
	// families, the Scenario C matrix, randomized transmission choices).
	Seed uint64
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("model: N = %d, want >= 1", p.N)
	}
	if p.K < 0 || p.K > p.N {
		return fmt.Errorf("model: K = %d out of [0,%d]", p.K, p.N)
	}
	if p.S < -1 {
		return fmt.Errorf("model: S = %d, want >= -1", p.S)
	}
	return nil
}

// KnowsK reports whether the bound k is part of the knowledge (Scenario B).
func (p Params) KnowsK() bool { return p.K > 0 }

// KnowsS reports whether the first wake-up slot is known (Scenario A).
func (p Params) KnowsS() bool { return p.S >= 0 }

// TransmitFunc is a station's transmission schedule: it reports whether the
// station transmits in global slot t. The function is only queried for
// t >= the station's wake time; deterministic algorithms make it a pure
// function of (id, wake, t) as the globally synchronous model prescribes.
type TransmitFunc func(t int64) bool

// Algorithm builds per-station schedules. Deterministic algorithms ignore
// src; randomized ones draw from it (each station gets an independent,
// reproducibly derived stream).
type Algorithm interface {
	// Name identifies the algorithm in tables and traces.
	Name() string
	// Build returns station id's schedule given its wake slot. Build must
	// be deterministic given (params, id, wake) and the bits drawn from src.
	Build(p Params, id int, wake int64, src *rng.Source) TransmitFunc
}

// Adaptive is implemented by algorithms whose stations react to channel
// feedback (e.g. binary tree splitting under collision detection, or the
// Komlós–Greenberg conflict-resolution extension that retires stations when
// they hear their own success). The simulator calls Observe on every awake
// station after every slot.
type Adaptive interface {
	Algorithm
	// BuildAdaptive returns a stateful station. It supersedes Build when
	// the simulator runs in adaptive mode.
	BuildAdaptive(p Params, id int, wake int64, src *rng.Source) AdaptiveStation
}

// AdaptiveStation is a stateful per-station protocol instance.
type AdaptiveStation interface {
	// WillTransmit reports whether the station transmits in global slot t.
	WillTransmit(t int64) bool
	// Observe delivers the slot's feedback as heard by this station
	// (already filtered through the channel's ChannelModel, which knows
	// whether this station transmitted or won the slot), together with the
	// ID carried by a successful message, or 0 otherwise.
	Observe(t int64, fb Feedback, successID int)
}

// Persistent is the capability of adaptive algorithms whose every station
// transmits in every slot from its wake while it hears only silence. On a
// channel that delivers a collision as silence to every role, silence is all
// a station hears before the success that ends the trial, so the trial
// follows from the wake times alone (see sim.ClosedForm).
type Persistent interface {
	Adaptive
	// Persistent marks the capability; it is never called.
	Persistent()
}

// WakePattern assigns wake slots to a subset of stations. It is the
// adversary's move: which stations join, and when.
type WakePattern struct {
	// IDs are the awake stations, distinct, each in [1, n].
	IDs []int
	// Wakes[i] is the slot at which IDs[i] wakes up (>= 0).
	Wakes []int64
}

// Validate checks the pattern against universe size n.
func (w WakePattern) Validate(n int) error {
	if len(w.IDs) == 0 {
		return fmt.Errorf("model: empty wake pattern")
	}
	if len(w.IDs) != len(w.Wakes) {
		return fmt.Errorf("model: %d ids but %d wake times", len(w.IDs), len(w.Wakes))
	}
	// Strictly increasing IDs (what Sample-based generators emit) are
	// distinct by construction; only other orders need the map.
	var seen map[int]bool
	if !strictlyIncreasing(w.IDs) {
		seen = make(map[int]bool, len(w.IDs))
	}
	for i, id := range w.IDs {
		if id < 1 || id > n {
			return fmt.Errorf("model: station %d out of [1,%d]", id, n)
		}
		if uint64(id) == ChannelStream {
			// The channel's perturbation stream derives from the run seed on
			// stream index ChannelStream; a station with that ID would share
			// its RNG stream with the channel, correlating its randomized
			// schedule with the noise/jam process.
			return fmt.Errorf("model: station ID %#x collides with the channel RNG stream", id)
		}
		if seen != nil {
			if seen[id] {
				return fmt.Errorf("model: duplicate station %d", id)
			}
			seen[id] = true
		}
		if w.Wakes[i] < 0 {
			return fmt.Errorf("model: negative wake time %d", w.Wakes[i])
		}
	}
	return nil
}

func strictlyIncreasing(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// K returns the number of awake stations.
func (w WakePattern) K() int { return len(w.IDs) }

// FirstWake returns s, the earliest wake slot (the paper's s).
func (w WakePattern) FirstWake() int64 {
	s := w.Wakes[0]
	for _, t := range w.Wakes[1:] {
		if t < s {
			s = t
		}
	}
	return s
}

// LastWake returns the latest wake slot.
func (w WakePattern) LastWake() int64 {
	s := w.Wakes[0]
	for _, t := range w.Wakes[1:] {
		if t > s {
			s = t
		}
	}
	return s
}

// WakeKey is one awake station's activation key: its wake slot and ID.
type WakeKey struct {
	Wake int64
	ID   int
}

// compareWakeKeys is the activation order: by wake slot, ties by ID.
func compareWakeKeys(a, b WakeKey) int {
	if a.Wake != b.Wake {
		if a.Wake < b.Wake {
			return -1
		}
		return 1
	}
	return a.ID - b.ID
}

// WakeOrder fills dst (reusing its capacity) with the pattern's stations in
// activation order — by wake time, ties broken by ID — and returns it. A
// pattern already in that order, what most generators emit, is not sorted
// again; with enough capacity in dst the call allocates nothing.
func (w WakePattern) WakeOrder(dst []WakeKey) []WakeKey {
	dst = dst[:0]
	sorted := true
	for i, id := range w.IDs {
		dst = append(dst, WakeKey{Wake: w.Wakes[i], ID: id})
		if i > 0 && compareWakeKeys(dst[i], dst[i-1]) < 0 {
			sorted = false
		}
	}
	if !sorted {
		slices.SortFunc(dst, compareWakeKeys)
	}
	return dst
}

// Sorted returns a copy of the pattern with stations ordered by wake time,
// ties broken by ID (the order of WakeOrder). The simulator relies on this
// order to activate stations incrementally.
func (w WakePattern) Sorted() WakePattern {
	keys := w.WakeOrder(make([]WakeKey, 0, len(w.IDs)))
	out := WakePattern{
		IDs:   make([]int, len(keys)),
		Wakes: make([]int64, len(keys)),
	}
	for i, key := range keys {
		out.IDs[i] = key.ID
		out.Wakes[i] = key.Wake
	}
	return out
}

// Simultaneous builds the pattern where all given stations wake at slot s.
func Simultaneous(ids []int, s int64) WakePattern {
	wakes := make([]int64, len(ids))
	for i := range wakes {
		wakes[i] = s
	}
	return WakePattern{IDs: append([]int(nil), ids...), Wakes: wakes}
}

// Result reports one simulation run.
type Result struct {
	// Succeeded is true if some slot carried a solo transmission before the
	// horizon was exhausted.
	Succeeded bool
	// Winner is the station that transmitted alone (0 if none).
	Winner int
	// SuccessSlot is the global slot of the first success (-1 if none).
	SuccessSlot int64
	// Rounds is the paper's cost measure t - s: slots from the first wake
	// up to and including the success slot index difference (-1 if none).
	Rounds int64
	// Slots is how many slots the simulator stepped.
	Slots int64
	// Collisions and Silences count the wasted slots by cause (ground
	// truth, not the station-observed feedback).
	Collisions int64
	Silences   int64
	// Transmissions counts individual transmission attempts across all
	// stations and slots.
	Transmissions int64
	// Listens counts listening slots: for every stepped slot, each awake
	// station that did not transmit spent the slot listening (stations that
	// have protocol-retired still listen — retirement is a schedule choice,
	// not an energy opt-out).
	Listens int64
}

// Energy returns the run's total energy cost — transmissions plus listening
// slots — the co-equal cost measure of De Marco, Kowalski & Stachowiak's
// energy-efficient contention resolution line of work.
func (r Result) Energy() int64 { return r.Transmissions + r.Listens }

// String implements fmt.Stringer for compact logging.
func (r Result) String() string {
	if !r.Succeeded {
		return fmt.Sprintf("FAILED after %d slots (%d collisions)", r.Slots, r.Collisions)
	}
	return fmt.Sprintf("station %d alone at slot %d (rounds=%d, collisions=%d, silences=%d)",
		r.Winner, r.SuccessSlot, r.Rounds, r.Collisions, r.Silences)
}
