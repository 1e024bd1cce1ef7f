package selectors

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"nsmac/internal/mathx"
	"nsmac/internal/rng"
)

// freshLadder builds the ladder a key names without touching the cache.
func freshLadder(k ladderKey) *Sequence {
	fams := make([]Family, k.maxI)
	for i := 1; i <= k.maxI; i++ {
		if k.kautz {
			fams[i-1] = NewKautzSingleton(k.n, mathx.Min(int(mathx.Pow2(i)), k.n))
		} else {
			fams[i-1] = NewRandomPow2Sized(k.n, i, rng.Derive(k.seed, uint64(i)), math.Float64frombits(k.mult))
		}
	}
	return NewSequence(fams...)
}

// ladderFor calls the public constructor the key names.
func ladderFor(k ladderKey) *Sequence {
	if k.kautz {
		return KSLadder(k.n, k.maxI)
	}
	return RandomLadder(k.n, k.maxI, k.seed, math.Float64frombits(k.mult))
}

// sameLadder reports how got differs from want: length, family boundaries,
// and membership over a sample of (set, station) pairs.
func sameLadder(got, want *Sequence) error {
	if got.Length() != want.Length() || got.NumFamilies() != want.NumFamilies() || got.N() != want.N() {
		return fmt.Errorf("shape (len %d, fams %d, n %d), want (len %d, fams %d, n %d)",
			got.Length(), got.NumFamilies(), got.N(), want.Length(), want.NumFamilies(), want.N())
	}
	for i := 0; i < want.NumFamilies(); i++ {
		if got.FamilyStart(i) != want.FamilyStart(i) {
			return fmt.Errorf("family %d starts at %d, want %d", i, got.FamilyStart(i), want.FamilyStart(i))
		}
	}
	step := want.Length()/97 + 1
	for j := int64(0); j < want.Length(); j += step {
		for id := 1; id <= want.N(); id += want.N()/13 + 1 {
			if got.Member(j, id) != want.Member(j, id) {
				return fmt.Errorf("Member(%d, %d) = %v, want %v", j, id, got.Member(j, id), want.Member(j, id))
			}
		}
	}
	return nil
}

func TestLadderCacheRepeatedKeySharesPointer(t *testing.T) {
	a := RandomLadder(256, 4, 0xfeed, 0)
	if b := RandomLadder(256, 4, 0xfeed, 0); a != b {
		t.Error("RandomLadder: repeated key built a second ladder")
	}
	k := KSLadder(64, 3)
	if k2 := KSLadder(64, 3); k != k2 {
		t.Error("KSLadder: repeated key built a second ladder")
	}
	// Every argument is part of the key.
	for _, other := range []*Sequence{
		RandomLadder(257, 4, 0xfeed, 0), RandomLadder(256, 5, 0xfeed, 0),
		RandomLadder(256, 4, 0xfeee, 0), RandomLadder(256, 4, 0xfeed, 2),
	} {
		if other == a {
			t.Error("RandomLadder: distinct arguments returned the cached ladder")
		}
	}
	if KSLadder(65, 3) == k || KSLadder(64, 4) == k {
		t.Error("KSLadder: distinct arguments returned the cached ladder")
	}
}

// collidingKeys returns count distinct keys that share one cache slot.
func collidingKeys(t *testing.T, count int) []ladderKey {
	t.Helper()
	base := ladderKey{n: 128, maxI: 3, seed: 1}
	keys := []ladderKey{base}
	for seed := uint64(2); len(keys) < count; seed++ {
		k := ladderKey{n: 128, maxI: 3, seed: seed}
		if k.slot() == base.slot() {
			keys = append(keys, k)
		}
		if seed > 1<<20 {
			t.Fatal("no colliding keys found")
		}
	}
	return keys
}

// TestLadderCacheConcurrent runs under -race in CI: callers on distinct
// keys and on keys that fight over one slot must all see the ladder a
// fresh construction gives.
func TestLadderCacheConcurrent(t *testing.T) {
	var keys []ladderKey
	for i := 0; i < 24; i++ {
		keys = append(keys, ladderKey{n: 64 + 37*i, maxI: 1 + i%5, seed: uint64(1000 + i), mult: math.Float64bits(float64(i % 3))})
	}
	for i := 0; i < 4; i++ {
		keys = append(keys, ladderKey{kautz: true, n: 40 + 9*i, maxI: 1 + i%3})
	}
	colliding := collidingKeys(t, 4)
	keys = append(keys, colliding...)
	// All keys at once, then every goroutine fighting over the one slot.
	hammerLadders(t, keys)
	hammerLadders(t, colliding)
}

func hammerLadders(t *testing.T, keys []ladderKey) {
	want := make([]*Sequence, len(keys))
	for i, k := range keys {
		want[i] = freshLadder(k)
	}
	const goroutines, rounds = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g*7 + r*5) % len(keys)
				if err := sameLadder(ladderFor(keys[i]), want[i]); err != nil {
					t.Errorf("key %+v: %v", keys[i], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
