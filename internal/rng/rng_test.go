package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestMix64AvalancheNonTrivial(t *testing.T) {
	// Flipping any single input bit should flip a substantial number of
	// output bits on average (weak avalanche sanity check).
	base := Mix64(0x12345678)
	total := 0
	for b := 0; b < 64; b++ {
		flipped := Mix64(0x12345678 ^ (1 << uint(b)))
		total += bits.OnesCount64(base ^ flipped)
	}
	avg := float64(total) / 64
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average = %.1f bits, want ~32", avg)
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(42) != Mix64(42) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(42) == Mix64(43) {
		t.Fatal("Mix64 collision on adjacent inputs (vanishingly unlikely)")
	}
}

func TestHash3ArgumentOrderMatters(t *testing.T) {
	seed := uint64(7)
	if Hash3(seed, 1, 2, 3) == Hash3(seed, 2, 1, 3) {
		t.Error("Hash3 symmetric in (a,b)")
	}
	if Hash3(seed, 1, 2, 3) == Hash3(seed, 1, 3, 2) {
		t.Error("Hash3 symmetric in (b,c)")
	}
	if Hash3(1, 1, 2, 3) == Hash3(2, 1, 2, 3) {
		t.Error("Hash3 ignores seed")
	}
}

func TestHash3Uniformity(t *testing.T) {
	// Empirical mean of normalized hashes should be near 1/2.
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		h := Hash3(99, uint64(i), uint64(i*31), uint64(i*17))
		sum += float64(h) / math.MaxUint64
	}
	mean := sum / trials
	if mean < 0.48 || mean > 0.52 {
		t.Errorf("hash mean = %.4f, want ~0.5", mean)
	}
}

func TestBelowEdgeCases(t *testing.T) {
	if !Below(math.MaxUint64, 0) {
		t.Error("Below(_, 0) must be true")
	}
	if !Below(math.MaxUint64, -3) {
		t.Error("Below(_, negative) must be true")
	}
	if Below(0, 64) {
		t.Error("Below(_, 64) must be false")
	}
	if Below(0, 100) {
		t.Error("Below(_, >64) must be false")
	}
	if !Below(0, 1) {
		t.Error("Below(0, 1) must be true")
	}
	if Below(1<<63, 1) {
		t.Error("Below(2^63, 1) must be false")
	}
	if !Below(1<<63-1, 1) {
		t.Error("Below(2^63-1, 1) must be true")
	}
}

func TestBelowProbability(t *testing.T) {
	// Empirical frequency of Below(hash, e) should be ~2^-e.
	for _, e := range []int{1, 2, 4, 6} {
		hits := 0
		const trials = 100000
		for i := 0; i < trials; i++ {
			if Below(Hash3(5, uint64(e), uint64(i), 77), e) {
				hits++
			}
		}
		got := float64(hits) / trials
		want := math.Pow(2, -float64(e))
		if math.Abs(got-want) > want/2+0.002 {
			t.Errorf("e=%d: frequency %.5f, want ~%.5f", e, got, want)
		}
	}
}

func TestSourceDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed sources diverged")
		}
	}
	c := New(124)
	same := 0
	a.Reseed(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestReseedResets(t *testing.T) {
	s := New(9)
	first := s.Uint64()
	s.Uint64()
	s.Reseed(9)
	if s.Uint64() != first {
		t.Fatal("Reseed did not reset the stream")
	}
}

// TestFirstUint64MatchesSource: FirstUint64 is the first output of a
// source reseeded with the same seed.
func TestFirstUint64MatchesSource(t *testing.T) {
	seeds := []uint64{0, 1, 2, 42, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for i := uint64(0); i < 1000; i++ {
		seeds = append(seeds, Derive(7, i))
	}
	var s Source
	for _, seed := range seeds {
		s.Reseed(seed)
		if got, want := FirstUint64(seed), s.Uint64(); got != want {
			t.Fatalf("FirstUint64(%#x) = %#x, Reseed+Uint64 = %#x", seed, got, want)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		d := Derive(42, i)
		if seen[d] {
			t.Fatalf("Derive collision at stream %d", i)
		}
		seen[d] = true
	}
	if Derive(42, 0) == Derive(43, 0) {
		t.Error("Derive ignores parent")
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	for _, n := range []int64{1, 5, 1 << 40} {
		for i := 0; i < 200; i++ {
			v := s.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	s := New(77)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := trials / n
	for v, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("value %d: count %d, want ~%d", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	var sum float64
	const trials = 50000
	for i := 0; i < trials; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %.4f, want ~0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(4)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	const trials = 50000
	for i := 0; i < trials; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	got := float64(hits) / trials
	if got < 0.23 || got > 0.27 {
		t.Errorf("Bernoulli(0.25) frequency = %.4f", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	f := func(raw uint8) bool {
		n := int(raw)%50 + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleProperties(t *testing.T) {
	s := New(6)
	f := func(rawN, rawK uint8) bool {
		n := int(rawN)%200 + 1
		k := int(rawK) % (n + 1)
		out := s.Sample(n, k)
		if len(out) != k {
			return false
		}
		for i, v := range out {
			if v < 1 || v > n {
				return false
			}
			if i > 0 && out[i-1] >= v { // strictly increasing => distinct
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleFullRange(t *testing.T) {
	s := New(8)
	out := s.Sample(5, 5)
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("Sample(5,5) = %v, want [1 2 3 4 5]", out)
		}
	}
	if got := s.Sample(10, 0); len(got) != 0 {
		t.Errorf("Sample(10,0) = %v, want empty", got)
	}
}

// floydReference is the textbook Sample: Floyd's draws deduplicated
// through a map, then sorted. Sample must consume the same draws and return
// the same set.
func floydReference(s *Source, n, k int) []int {
	chosen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for j := n - k + 1; j <= n; j++ {
		t := s.Intn(j) + 1
		if chosen[t] {
			t = j
		}
		chosen[t] = true
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

func TestSampleMatchesFloydReference(t *testing.T) {
	// Both dedup paths: the stack bitset below sampleBitsetCap, binary
	// search from it on.
	for _, n := range []int{1, 2, 3, 7, 64, 257, 1024, sampleBitsetCap - 1, sampleBitsetCap, 20000} {
		for _, k := range []int{0, 1, 2, n / 3, n / 2, n - 1, n} {
			if k < 0 || k > n {
				continue
			}
			for seed := uint64(1); seed <= 8; seed++ {
				got, want := New(seed), New(seed)
				g, w := got.Sample(n, k), floydReference(want, n, k)
				if !slices.Equal(g, w) {
					t.Fatalf("Sample(%d,%d) seed %d = %v, want %v", n, k, seed, g, w)
				}
				// Same draws consumed: the streams stay in step afterwards.
				if a, b := got.Uint64(), want.Uint64(); a != b {
					t.Fatalf("Sample(%d,%d) seed %d left the stream at %#x, reference %#x", n, k, seed, a, b)
				}
			}
		}
	}
}

func TestSampleAllocatesOnlyItsResult(t *testing.T) {
	s := New(4)
	for _, c := range []struct{ n, k int }{{64, 1}, {256, 16}, {1024, 64}, {64, 64}, {20000, 64}} {
		if allocs := testing.AllocsPerRun(50, func() { _ = s.Sample(c.n, c.k) }); allocs != 1 {
			t.Errorf("Sample(%d,%d) allocates %.0f objects, want 1", c.n, c.k, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = s.Sample(64, 0) }); allocs != 0 {
		t.Errorf("Sample(64,0) allocates %.0f objects, want 0", allocs)
	}
}

func TestSamplePanicsWhenKExceedsN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample(2,3) should panic")
		}
	}()
	New(1).Sample(2, 3)
}

func TestMul64MatchesBits(t *testing.T) {
	s := New(11)
	for i := 0; i < 2000; i++ {
		a, b := s.Uint64(), s.Uint64()
		hi, lo := mul64(a, b)
		wantHi, wantLo := bits.Mul64(a, b)
		if hi != wantHi || lo != wantLo {
			t.Fatalf("mul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)",
				a, b, hi, lo, wantHi, wantLo)
		}
	}
}
