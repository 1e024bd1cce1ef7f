package kernel

import (
	"math/bits"

	"nsmac/internal/bitset"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// The feedback-epoch executor runs adaptive algorithms that declare
// model.EpochOblivious on the word scan. classify routes them here only on
// channels that deliver a collision as silence to every role (none, ack,
// noisy:<p>, jam:<q>): there the only feedback that can differ from silence
// is the success that ends the trial, so no observation moves station state
// while the trial runs and each station follows its silence projection from
// wake to end. The kernel builds every station at its wake, renders it
// word by word and resolves each word in a single overlay pass, exactly like
// the oblivious scan — and consuming the channel stream in the same slot
// order, which keeps draw parity with the engine.
//
// On cd and sender_cd every collision would reach some station and force a
// re-render; those cells measured slower here than on the engine and stay
// there.

// epochRef is one awake station of an epoch trial. st is nil until the
// station's first word arrives (build-at-activation, like the engine).
type epochRef struct {
	id   int
	wake int64
	st   model.EpochStation
}

// runToEpoch is RunTo for modeEpoch: word-at-a-time, clipped at the wake of
// any station whose EpochStation would have to be built mid-word — a trial
// that ends before a wake never pays for that station's construction.
func (k *Kernel) runToEpoch(until int64) bool {
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

// stepEpoch executes slots [lo, hi), which lie within one 64-slot word and
// within the horizon, updating the result counters exactly as hi-lo engine
// steps would.
func (k *Kernel) stepEpoch(lo, hi int64) {
	base := lo &^ 63

	// Render this word for every station awake in it; awakeMask clears the
	// bits before each station's wake, which the RenderWord contract leaves
	// unspecified.
	var scan bitset.SoloScan
	nact := 0
	for i := range k.epochs {
		er := &k.epochs[i]
		if er.wake >= hi {
			break // wake-ordered: no later station is awake in this word
		}
		if er.st == nil {
			er.st = k.epochAlgo.BuildEpoch(k.p, er.id, er.wake, rng.New(rng.Derive(k.seed, uint64(er.id))))
		}
		w := er.st.RenderWord(base-er.wake) & awakeMask(er.wake, base)
		k.wbuf[i] = w
		scan.Add(w)
		nact++
	}

	window := bitset.WordMask(uint(lo-base), uint(hi-base))
	any := scan.Any & window
	solo := any &^ scan.Multi
	jammed, erased, sb := k.overlayWord(any, solo)
	eff := window
	if sb >= 0 {
		eff &= ^uint64(0) >> uint(63-sb)
	}
	k.result.Collisions += int64(bits.OnesCount64(((scan.Multi &^ erased) | jammed) & eff))
	k.result.Silences += int64(bits.OnesCount64((eff &^ any) | (erased & eff)))
	var winner int
	for i := 0; i < nact; i++ {
		aw := eff & awakeMask(k.epochs[i].wake, base)
		w := k.wbuf[i] & aw
		k.result.Transmissions += int64(bits.OnesCount64(w))
		k.result.Listens += int64(bits.OnesCount64(aw &^ w))
		if sb >= 0 && w&(1<<uint(sb)) != 0 {
			winner = k.epochs[i].id
		}
	}
	if sb >= 0 {
		slot := base + int64(sb)
		k.result.Succeeded = true
		k.result.Winner = winner
		k.result.SuccessSlot = slot
		k.result.Rounds = slot - k.s
		k.t = slot + 1
		k.done = true
	} else {
		k.t = hi
	}
	k.result.Slots = k.t - k.s
}
