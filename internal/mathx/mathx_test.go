package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLog2Ceil(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1023, 10}, {1024, 10}, {1025, 11}, {1 << 20, 20},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.in); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLog2PanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for non-positive input")
		}
	}()
	Log2Ceil(0)
}

func TestLog2Property(t *testing.T) {
	f := func(raw uint16) bool {
		x := int(raw)%100000 + 1
		ce := Log2Ceil(x)
		// 2^(ce-1) < x <= 2^ce
		return (1<<uint(ce))/2 < x && x <= (1<<uint(ce))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {1, 2, 1}, {2, 2, 1}, {3, 2, 2},
		{10, 3, 4}, {9, 3, 3}, {100, 7, 15},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivProperty(t *testing.T) {
	f := func(a uint16, b uint8) bool {
		bb := int(b)%1000 + 1
		aa := int(a)
		q := CeilDiv(aa, bb)
		return q*bb >= aa && (q-1)*bb < aa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPow2(t *testing.T) {
	for e := 0; e < 63; e++ {
		if Pow2(e) != int64(1)<<uint(e) {
			t.Fatalf("Pow2(%d) wrong", e)
		}
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{2: true, 3: true, 5: true, 7: true, 11: true,
		13: true, 97: true, 7919: true, 104729: true}
	for p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	for _, c := range []int{-7, 0, 1, 4, 9, 15, 21, 91, 7917, 104730} {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {14, 17}, {90, 97},
		{7908, 7919},
	}
	for _, c := range cases {
		if got := NextPrime(c.in); got != c.want {
			t.Errorf("NextPrime(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNextPrimeProperty(t *testing.T) {
	f := func(raw uint16) bool {
		x := int(raw) % 20000
		p := NextPrime(x)
		if p < x || !IsPrime(p) {
			return false
		}
		// no prime in [max(2,x), p)
		for q := max(2, x); q < p; q++ {
			if IsPrime(q) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPrefixSums(t *testing.T) {
	ps := PrefixSums([]int64{3, 1, 4, 1, 5})
	want := []int64{0, 3, 4, 8, 9, 14}
	if len(ps) != len(want) {
		t.Fatalf("len = %d, want %d", len(ps), len(want))
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("ps[%d] = %d, want %d", i, ps[i], want[i])
		}
	}
	if got := PrefixSums(nil); len(got) != 1 || got[0] != 0 {
		t.Error("PrefixSums(nil) should be [0]")
	}
}

func TestBoundKLogNK(t *testing.T) {
	// k = n: pure additive term, no log component.
	if got := BoundKLogNK(64, 64); got != 65 {
		t.Errorf("BoundKLogNK(64,64) = %d, want 65", got)
	}
	// k = 1: log2(n) + 2.
	if got := BoundKLogNK(1024, 1); got != int64(10+1+1) {
		t.Errorf("BoundKLogNK(1024,1) = %d, want 12", got)
	}
	// Monotone in k for fixed n over the small-k regime.
	prev := int64(0)
	for k := 1; k <= 64; k *= 2 {
		b := BoundKLogNK(4096, k)
		if b <= prev {
			t.Errorf("BoundKLogNK not increasing at k=%d: %d <= %d", k, b, prev)
		}
		prev = b
	}
}

func TestBoundKLogNKAgainstFloat(t *testing.T) {
	for _, n := range []int{16, 256, 4096} {
		for k := 1; k <= n; k *= 4 {
			want := int64(float64(k)*math.Max(0, math.Log2(float64(n)/float64(k)))) + int64(k) + 1
			if got := BoundKLogNK(n, k); got != want {
				t.Errorf("BoundKLogNK(%d,%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}

func TestBoundKLogLogLog(t *testing.T) {
	// n=4096: logN=12, loglogN=ceil(log2 12)=4 -> k*48.
	if got := BoundKLogLogLog(4096, 8); got != 8*12*4 {
		t.Errorf("BoundKLogLogLog(4096,8) = %d, want %d", got, 8*12*4)
	}
	// Tiny n must stay positive.
	if got := BoundKLogLogLog(1, 1); got < 1 {
		t.Errorf("BoundKLogLogLog(1,1) = %d, want >= 1", got)
	}
	if got := BoundKLogLogLog(2, 1); got < 1 {
		t.Errorf("BoundKLogLogLog(2,1) = %d, want >= 1", got)
	}
}

func TestBoundLowerMinKN(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{10, 1, 1}, {10, 5, 5}, {10, 6, 5}, {10, 10, 1}, {64, 32, 32},
		{64, 60, 5},
	}
	for _, c := range cases {
		if got := BoundLowerMinKN(c.n, c.k); got != c.want {
			t.Errorf("BoundLowerMinKN(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBoundsPanicOnBadArgs(t *testing.T) {
	fns := []func(){
		func() { BoundKLogNK(4, 5) },
		func() { BoundKLogNK(4, 0) },
		func() { BoundKLogLogLog(4, 5) },
		func() { BoundLowerMinKN(0, 0) },
	}
	for i, fn := range fns {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
