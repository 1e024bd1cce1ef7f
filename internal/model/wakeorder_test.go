package model

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fuzzPattern decodes raw into a wake pattern: each 3-byte record is one
// station, waking at base + (its first two bytes) mod (span+1). With
// increasing set, IDs strictly increase, each 1–4 above the last by the
// record's third byte; otherwise the third byte is the ID itself, so IDs
// may fall, repeat or tie.
func fuzzPattern(raw []byte, base int64, span uint16, increasing bool) WakePattern {
	k := min(len(raw)/3, 512)
	w := WakePattern{IDs: make([]int, k), Wakes: make([]int64, k)}
	id := 0
	for i := range k {
		rec := raw[3*i : 3*i+3]
		w.Wakes[i] = base + int64(uint32(binary.BigEndian.Uint16(rec))%(uint32(span)+1))
		if increasing {
			id += 1 + int(rec[2]%4)
		} else {
			id = int(rec[2]) + 1
		}
		w.IDs[i] = id
	}
	return w
}

// wakeRecords encodes wake offsets as fuzzPattern records with ID byte 0.
func wakeRecords(offsets ...uint16) []byte {
	var raw []byte
	for _, off := range offsets {
		raw = binary.BigEndian.AppendUint16(raw, off)
		raw = append(raw, 0)
	}
	return raw
}

// FuzzWakeOrder checks WakeOrder against sorting the keys with
// compareWakeKeys, on all three of its paths: an already sorted pattern is
// copied, a narrow span of strictly increasing IDs is counting-sorted, and
// anything else (a wide span, IDs that do not increase) is sorted. Into a
// dst with the capacity, WakeOrder must not allocate.
func FuzzWakeOrder(f *testing.F) {
	const limit = countingSortSpan
	// Already sorted: staggered wakes with increasing IDs, and one station.
	f.Add(wakeRecords(0, 3, 6, 9, 12), int64(0), uint16(math.MaxUint16), true)
	f.Add(wakeRecords(7), int64(5), uint16(10), false)
	// Narrow span, increasing IDs: with ties, and with the span one below
	// the counting-sort limit and at it.
	f.Add(wakeRecords(40, 3, 3, 17, 0, 64, 3, 40), int64(0), uint16(64), true)
	f.Add(wakeRecords(limit-1, 0, 9, limit-1, 2), int64(1)<<40, uint16(limit-1), true)
	f.Add(wakeRecords(limit, 0, 9, limit, 2), int64(1)<<40, uint16(limit), true)
	// Wide span, and IDs that do not increase.
	f.Add(wakeRecords(60000, 0, 300, 299, 1), int64(0), uint16(math.MaxUint16), true)
	f.Add([]byte{0, 5, 9, 0, 1, 3, 0, 5, 2, 0, 1, 3}, int64(0), uint16(8), false)
	// A span past the int64 range.
	f.Add(wakeRecords(1, 0), int64(math.MaxInt64), uint16(1), true)
	f.Fuzz(func(t *testing.T, raw []byte, base int64, span uint16, increasing bool) {
		w := fuzzPattern(raw, base, span, increasing)
		want := make([]WakeKey, len(w.IDs))
		for i, id := range w.IDs {
			want[i] = WakeKey{Wake: w.Wakes[i], ID: id}
		}
		slices.SortFunc(want, compareWakeKeys)
		dst := make([]WakeKey, 3, max(3, len(w.IDs))) // stale entries to overwrite
		got := w.WakeOrder(dst)
		if !slices.Equal(got, want) {
			t.Fatalf("WakeOrder(%v, %v) = %v, want %v", w.IDs, w.Wakes, got, want)
		}
		if allocs := testing.AllocsPerRun(1, func() { got = w.WakeOrder(got) }); allocs != 0 {
			t.Fatalf("WakeOrder into a dst with capacity allocates %.0f objects, want 0", allocs)
		}
	})
}
