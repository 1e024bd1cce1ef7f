// Package mathx provides the small integer-math toolkit shared by the
// contention-resolution algorithms: base-2 logarithms, ceiling division,
// prime search for the Reed–Solomon selective-family construction, and the
// closed-form complexity bounds from the paper (k·log(n/k)+1 and
// k·log n·log log n) used by horizon guards and experiment tables.
package mathx

import (
	"math"
	"math/bits"
)

// Log2Ceil returns ceil(log2(x)) for x >= 1. Log2Ceil(1) == 0.
func Log2Ceil(x int) int {
	if x <= 0 {
		panic("mathx: Log2Ceil of non-positive value")
	}
	if x == 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// CeilDiv returns ceil(a/b) for b > 0.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("mathx: CeilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

// Pow2 returns 2^e for 0 <= e < 63.
func Pow2(e int) int64 {
	if e < 0 || e >= 63 {
		panic("mathx: Pow2 exponent out of range")
	}
	return int64(1) << uint(e)
}

// IsPrime reports whether p is prime, by trial division. Intended for the
// small moduli (< ~10^6) needed by the Reed–Solomon family construction.
func IsPrime(p int) bool {
	if p < 2 {
		return false
	}
	if p%2 == 0 {
		return p == 2
	}
	for d := 3; d*d <= p; d += 2 {
		if p%d == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime >= x.
func NextPrime(x int) int {
	if x <= 2 {
		return 2
	}
	if x%2 == 0 {
		x++
	}
	for !IsPrime(x) {
		x += 2
	}
	return x
}

// PrefixSums returns the exclusive prefix sums of xs: out[i] = sum(xs[:i]),
// with len(out) == len(xs)+1 so out[len(xs)] is the total.
func PrefixSums(xs []int64) []int64 {
	out := make([]int64, len(xs)+1)
	for i, x := range xs {
		out[i+1] = out[i] + x
	}
	return out
}

// --- Complexity bounds from the paper -------------------------------------

// BoundKLogNK returns the Scenario A/B bound k*log2(n/k) + k + 1 (the
// "+k" term carries the O(k) additive part of Komlós–Greenberg family
// lengths so the bound is never sub-linear in k; the paper writes it as
// Θ(k log(n/k) + 1)). Defined for 1 <= k <= n.
func BoundKLogNK(n, k int) int64 {
	if k < 1 || n < k {
		panic("mathx: BoundKLogNK requires 1 <= k <= n")
	}
	l := math.Log2(float64(n) / float64(k))
	if l < 0 {
		l = 0
	}
	return int64(float64(k)*l) + int64(k) + 1
}

// BoundKLogLogLog returns the Scenario C bound k * log2(n) * loglog(n),
// where both logs are ceiled and floored at 1 so the bound is monotone and
// positive for every n >= 1 (the paper's O(k log n log log n)).
func BoundKLogLogLog(n, k int) int64 {
	if k < 1 || n < k {
		panic("mathx: BoundKLogLogLog requires 1 <= k <= n")
	}
	logN := max(1, Log2Ceil(max(2, n)))
	logLogN := max(1, Log2Ceil(max(2, logN)))
	return int64(k) * int64(logN) * int64(logLogN)
}

// BoundLowerMinKN returns Theorem 2.1's lower bound min{k, n-k+1}.
func BoundLowerMinKN(n, k int) int64 {
	if k < 1 || n < k {
		panic("mathx: BoundLowerMinKN requires 1 <= k <= n")
	}
	return int64(min(k, n-k+1))
}
