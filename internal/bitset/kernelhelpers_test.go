package bitset

import (
	"math/bits"
	"testing"

	"nsmac/internal/rng"
)

func TestWordMask(t *testing.T) {
	cases := []struct {
		lo, hi uint
		want   uint64
	}{
		{0, 64, ^uint64(0)},
		{0, 0, 0},
		{64, 64, 0},
		{0, 1, 1},
		{63, 64, 1 << 63},
		{4, 8, 0xf0},
	}
	for _, c := range cases {
		if got := WordMask(c.lo, c.hi); got != c.want {
			t.Errorf("WordMask(%d,%d) = %#x, want %#x", c.lo, c.hi, got, c.want)
		}
	}
	for lo := uint(0); lo <= 64; lo++ {
		for hi := lo; hi <= 64; hi++ {
			if got, want := bits.OnesCount64(WordMask(lo, hi)), int(hi-lo); got != want {
				t.Fatalf("WordMask(%d,%d) has %d bits, want %d", lo, hi, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("WordMask(5,4) did not panic")
		}
	}()
	WordMask(5, 4)
}

// TestSoloScan checks the word-wide solo detector against the obvious
// per-bit count over random station words.
func TestSoloScan(t *testing.T) {
	src := rng.New(0x5010)
	for round := 0; round < 200; round++ {
		k := 1 + src.Intn(8)
		words := make([]uint64, k)
		counts := make([]int, 64)
		var scan SoloScan
		for i := range words {
			words[i] = src.Uint64() & src.Uint64() // sparse-ish
			scan.Add(words[i])
			for b := 0; b < 64; b++ {
				if words[i]&(1<<uint(b)) != 0 {
					counts[b]++
				}
			}
		}
		for b := 0; b < 64; b++ {
			bit := uint64(1) << uint(b)
			if got, want := scan.Any&bit != 0, counts[b] >= 1; got != want {
				t.Fatalf("round %d bit %d: Any=%v, count=%d", round, b, got, counts[b])
			}
			if got, want := scan.Multi&bit != 0, counts[b] >= 2; got != want {
				t.Fatalf("round %d bit %d: Multi=%v, count=%d", round, b, got, counts[b])
			}
			if got, want := scan.Solo()&bit != 0, counts[b] == 1; got != want {
				t.Fatalf("round %d bit %d: Solo=%v, count=%d", round, b, got, counts[b])
			}
		}
	}
}
