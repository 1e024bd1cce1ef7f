package kernel

import (
	"math/bits"

	"nsmac/internal/bitset"
	"nsmac/internal/model"
	"nsmac/internal/rng"
)

// epochRef is one awake station of a trial. st is nil until the station's
// first word arrives (build-at-activation, like the engine); src is its
// per-station stream, reseeded in place when it is built.
type epochRef struct {
	id   int
	wake int64
	st   model.EpochStation
	src  rng.Source
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
			er.src.Reseed(rng.Derive(k.seed, uint64(er.id)))
			er.st = k.algo.BuildEpoch(k.p, er.id, er.wake, &er.src)
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
