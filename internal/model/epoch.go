package model

import "nsmac/internal/rng"

// This file defines the feedback-epoch capability: the contract that lets an
// ADAPTIVE algorithm execute on the bitset slot kernel's word-wide scan.
//
// The structural fact the contract captures is that on some channels a
// wake-up run delivers nothing but silence before the success that ends it:
// the paper's channel, the ack regime and their noisy/jam perturbations all
// deliver a physical collision as silence to every role. A station whose
// reaction to silence is a pure, feedback-free transition then follows one
// fixed schedule from its wake slot to the end of the trial — its silence
// projection — which it can render word-wide up front, like an oblivious
// schedule. The kernel routes epoch algorithms only onto such channels, so it
// never delivers feedback to an epoch station: it builds one and reads its
// renders.

// EpochOblivious is the capability interface of adaptive algorithms whose
// stations can render their silence projection. An adaptive algorithm
// without this capability stays on the slot-by-slot engine.
type EpochOblivious interface {
	Adaptive
	// BuildEpoch returns a station whose rendering obeys the EpochStation
	// contract. Its renders must be exactly the schedule BuildAdaptive's
	// station follows for the same (params, id, wake, stream) inputs when
	// every slot from its wake onward is observed as silence: the kernel's
	// epoch path and the engine's per-slot path must be byte-identical in
	// every Result counter.
	BuildEpoch(p Params, id int, wake int64, src *rng.Source) EpochStation
}

// EpochStation is a stateful per-station protocol instance that additionally
// renders its silence projection word-wide.
type EpochStation interface {
	AdaptiveStation
	// RenderWord returns the freshly built station's transmit bits for the 64
	// slots starting from slots after its wake (bit i = local slot from+i,
	// local slot 0 = the wake slot) under the assumption that every slot
	// from the wake onward is observed as silence. from may be negative;
	// bits for slots before the wake are unspecified — the caller masks
	// them. RenderWord must not mutate protocol state.
	RenderWord(from int64) uint64
}
